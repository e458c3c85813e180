"""Lower and upper bounds on the nonnegative rank of a slack matrix.

Lower bounds: linear-algebra rank, greedy fooling sets, exact minimum
rectangle covers of the support (branch and bound over maximal support
rectangles), and the hyperplane separation bound <W,S> / (max|S| * alpha)
where alpha maximizes <W,R> over binary rank-1 matrices R.  Upper bounds:
trivial slack-variable factorizations and an alternating-LP heuristic whose
candidates count only after an exact rational repair verifies.

Weight matrices admit a FORBIDDEN marker modeling minus-infinity cells: a
rectangle touching one is worthless, and FORBIDDEN against a nonzero slack
is a hard input error.  FORBIDDEN times zero contributes zero.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InputError
from .exactla import (
    ExactMatrix,
    common_denominator,
    conic_combination,
    lp_solve,
    matrix_to_json,
    rank,
    rat,
)
from .polytope import Rectangle, SlackMatrix, as_matrix
from .yannakakis import Factorization, verify_factorization


class _Forbidden:
    """Singleton marker for minus-infinity weight cells."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "FORBIDDEN"


FORBIDDEN = _Forbidden()


def _require_nonnegative(**budgets: int) -> None:
    for name, value in budgets.items():
        if value < 0:
            raise InputError(f"{name} must be nonnegative, got {value}")


@dataclass(frozen=True)
class WeightMatrix:
    """W held as integers over one positive denominator: cell (i, j) is
    grid[i][j] / scale, and None in the grid marks FORBIDDEN."""

    grid: tuple[tuple[int | None, ...], ...]
    scale: int

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "WeightMatrix":
        cooked = [[x if x is FORBIDDEN else rat(x) for x in row] for row in rows]
        width = len(cooked[0]) if cooked else 0
        if any(len(row) != width for row in cooked):
            raise InputError("weight rows have unequal lengths")
        if width == 0:
            raise InputError("weight matrix needs at least one row and column")
        scale = common_denominator(x for row in cooked for x in row if x is not FORBIDDEN)
        grid = tuple(
            tuple(None if x is FORBIDDEN else x.numerator * (scale // x.denominator) for x in row)
            for row in cooked
        )
        return cls(grid, scale)

    @property
    def nrows(self) -> int:
        return len(self.grid)

    @property
    def ncols(self) -> int:
        return len(self.grid[0])

    def entry(self, i: int, j: int):
        x = self.grid[i][j]
        return FORBIDDEN if x is None else Fraction(x, self.scale)

    def frobenius_with(self, s: SlackMatrix | ExactMatrix) -> Fraction:
        """<W, S> with FORBIDDEN * 0 = 0 and FORBIDDEN * nonzero an error; each
        row is summed in integers over its slack row's common denominator."""
        m = as_matrix(s)
        if m.nrows != self.nrows or m.ncols != self.ncols:
            raise InputError("weight and slack dimensions differ")
        total = Fraction(0)
        for i, wrow in enumerate(self.grid):
            srow = m.row(i)
            den = common_denominator(srow)
            acc = 0
            for w, x in zip(wrow, srow):
                if w is None:
                    if x:
                        raise InputError(f"FORBIDDEN weight meets nonzero slack at row {i}")
                elif w and x:
                    acc += w * x.numerator * (den // x.denominator)
            total += Fraction(acc, den)
        return total / self.scale

    def rectangle_sum(self, rows: Iterable[int], cols: Iterable[int]):
        """Sum of weights over a rectangle; FORBIDDEN if any cell is."""
        cols = tuple(cols)
        total = 0
        for i in rows:
            wrow = self.grid[i]
            for j in cols:
                w = wrow[j]
                if w is None:
                    return FORBIDDEN
                total += w
        return Fraction(total, self.scale)


# ---------------------------------------------------------------------------
# Maximum rectangle value (the alpha of the separation bound)

@dataclass(frozen=True)
class RectangleValue:
    value: Fraction
    rectangle: Rectangle
    certified: bool


def _best_cols_for_rows(grid, nrows, ncols, rows: frozenset[int]):
    cols = []
    value = 0
    for j in range(ncols):
        partial = 0
        blocked = False
        for i in rows:
            x = grid[i][j]
            if x is None:
                blocked = True
                break
            partial += x
        if not blocked and partial > 0:
            cols.append(j)
            value += partial
    return frozenset(cols), value


def max_rectangle_value(
    w: WeightMatrix,
    mode: str = "exact",
    restarts: int = 20,
    seed: int = 0,
    cap: int = 22,
) -> RectangleValue:
    """Maximize the weight sum over row-set x column-set rectangles.

    Exact mode walks all subsets of the smaller side in Gray-code order,
    keeping per-column partial sums and FORBIDDEN counters; the optimal
    other side picks exactly the unblocked columns with positive partial
    sum.  The empty rectangle is admitted, so the value is never negative.
    Heuristic mode alternates the two one-sided optimizations from seeded
    random starts and is flagged non-certified.
    """
    if mode == "heuristic":
        return _max_rectangle_heuristic(w, restarts, seed)
    if mode != "exact":
        raise InputError(f"unknown mode {mode!r}: use 'exact' or 'heuristic'")

    transposed = w.nrows > w.ncols
    grid = tuple(zip(*w.grid)) if transposed else w.grid
    nrows, ncols = len(grid), len(grid[0])
    if nrows > cap:
        raise InputError(
            f"exact mode needs min(rows, cols) <= {cap}, got {nrows}; "
            "use heuristic mode"
        )
    support = [
        [(j, grid[i][j]) for j in range(ncols) if grid[i][j] not in (None, 0)]
        for i in range(nrows)
    ]
    forb_cols = [
        [j for j in range(ncols) if grid[i][j] is None] for i in range(nrows)
    ]

    partial = [0] * ncols
    forb = [0] * ncols
    contrib = [0] * ncols
    value = 0
    best_value = 0
    best_mask = 0
    mask = 0
    for step in range(1, 1 << nrows):
        gray = step ^ (step >> 1)
        bit = (gray ^ mask).bit_length() - 1
        adding = not (mask >> bit) & 1
        mask = gray
        touched = set(forb_cols[bit])
        for j, x in support[bit]:
            partial[j] += x if adding else -x
            touched.add(j)
        for j in forb_cols[bit]:
            forb[j] += 1 if adding else -1
        for j in touched:
            new = partial[j] if forb[j] == 0 and partial[j] > 0 else 0
            value += new - contrib[j]
            contrib[j] = new
        if value > best_value:
            best_value = value
            best_mask = mask

    rows = frozenset(i for i in range(nrows) if (best_mask >> i) & 1)
    cols, check = _best_cols_for_rows(grid, nrows, ncols, rows)
    if check != best_value:
        raise AssertionError(f"Gray-code value {best_value}, its rectangle sums to {check}")
    rect = Rectangle(cols, rows) if transposed else Rectangle(rows, cols)
    return RectangleValue(Fraction(best_value, w.scale), rect, True)


def _max_rectangle_heuristic(w: WeightMatrix, restarts: int, seed: int) -> RectangleValue:
    _require_nonnegative(restarts=restarts)
    grid, nrows, ncols = w.grid, w.nrows, w.ncols
    tgrid = tuple(zip(*grid))
    rng = random.Random(seed)
    best_value = 0
    best = (frozenset(), frozenset())
    for _ in range(max(1, restarts)):
        rows = frozenset(i for i in range(nrows) if rng.random() < 0.5)
        value = -1
        while True:
            cols, v1 = _best_cols_for_rows(grid, nrows, ncols, rows)
            new_rows, v2 = _best_cols_for_rows(tgrid, ncols, nrows, cols)
            if v2 <= value:
                break
            rows, value = new_rows, v2
        if value > best_value:
            best_value = value
            best = (rows, _best_cols_for_rows(grid, nrows, ncols, rows)[0])
    return RectangleValue(
        Fraction(best_value, w.scale), Rectangle(best[0], best[1]), False
    )


def hyperplane_bound(
    w: WeightMatrix, s: SlackMatrix | ExactMatrix, alpha: Fraction
) -> Fraction:
    """<W,S> / (max|S| * alpha), a lower bound on the nonnegative rank when
    alpha comes from exact max_rectangle_value.  Requires FORBIDDEN cells of
    W to sit on zero slack."""
    m = as_matrix(s)
    inner = w.frobenius_with(m)
    alpha = rat(alpha)
    if alpha < 0:
        raise InputError("alpha cannot be negative: the empty rectangle has value 0")
    norm = m.max_norm()
    if alpha == 0 or norm == 0:
        if inner > 0:
            raise InputError(
                "positive inner product with zero alpha or zero slack: "
                "the bound is unbounded; inputs are inconsistent"
            )
        return Fraction(0)
    return inner / (norm * alpha)


# ---------------------------------------------------------------------------
# The support of S, and fooling sets

def _supports(m: ExactMatrix) -> list[frozenset[int]]:
    """The support of m: per row, the set of columns holding a nonzero.
    The fooling-set and cover bounds and their re-checks all read this."""
    return [frozenset(j for j, x in enumerate(m.row(i)) if x) for i in range(m.nrows)]


def fooling_set_greedy(
    s: SlackMatrix | ExactMatrix, seed: int = 0
) -> tuple[tuple[int, int], ...]:
    """Greedy fooling set: support cells no two of which fit in one support
    rectangle.  Its size lower-bounds the rectangle cover number."""
    supports = _supports(as_matrix(s))
    cells = [(i, j) for i, supp in enumerate(supports) for j in sorted(supp)]
    rng = random.Random(seed)
    rng.shuffle(cells)
    chosen: list[tuple[int, int]] = []
    for (i, j) in cells:
        if all(jj not in supports[i] or j not in supports[ii] for ii, jj in chosen):
            chosen.append((i, j))
    return tuple(sorted(chosen))


def _check_fooling(supports: list[frozenset[int]], cells: Sequence[tuple[int, int]]) -> bool:
    if any(j not in supports[i] for i, j in cells):
        return False
    return not any(
        jj in supports[i] and j in supports[ii]
        for (i, j), (ii, jj) in itertools.combinations(cells, 2)
    )


# ---------------------------------------------------------------------------
# Exact rectangle covering of the support

@dataclass(frozen=True)
class CoverResult:
    status: str  # "optimal" or "exceeded"
    size: int | None
    rectangles: tuple[Rectangle, ...]
    explored: int


def _maximal_rectangles(
    supports: list[frozenset[int]], ncols: int, spend: Callable[[], bool]
) -> list[Rectangle] | None:
    """All maximal support rectangles (closed row-set/column-set pairs) in
    lectic order, or None once `spend` refuses a closure computation."""
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


def rectangle_cover_exact(
    s: SlackMatrix | ExactMatrix, limit: int = 200_000, cap: int = 20
) -> CoverResult:
    """Exact minimum number of support rectangles covering the support of S,
    by branch and bound over maximal support rectangles.  Every closure and
    every search node costs one step; the result is "exceeded", with
    `explored == limit`, when the search needs more than `limit` steps."""
    _require_nonnegative(limit=limit, cap=cap)
    m = as_matrix(s)
    if m.nrows > cap or m.ncols > cap:
        raise InputError(
            f"exact cover needs dimensions <= {cap}, got {m.nrows}x{m.ncols}"
        )
    supports = _supports(m)
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

    rects = _maximal_rectangles(supports, m.ncols, spend)
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


def _check_cover(supports: list[frozenset[int]], rectangles: Sequence[Rectangle]) -> bool:
    covered = {cell for r in rectangles for cell in r.cells()}
    return covered == {(i, j) for i, supp in enumerate(supports) for j in supp}


# ---------------------------------------------------------------------------
# The canonical cover of the perfect-matching slack support

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
    from .matchgen import (
        EdgeIndexing,
        canonical_odd_sets,
        enumerate_perfect_matchings,
        odd_set_slack,
        perfect_matching_polytope,
    )

    if n < 6 or n % 2:
        raise InputError(f"need an even n >= 6, got {n}")
    poly = perfect_matching_polytope(n)
    slack = odd_set_slack(poly)
    edges = EdgeIndexing(n)
    proper = [u for u in canonical_odd_sets(n) if 3 <= len(u) <= n - 3]
    if len(proper) != slack.nrows:
        raise AssertionError(f"{len(proper)} proper odd sets, {slack.nrows} slack rows")
    cut_masks = []
    for u in proper:
        inside = set(u)
        cut_masks.append(
            sum(
                1 << k
                for k, (a, b) in enumerate(edges.pairs)
                if (a in inside) != (b in inside)
            )
        )
    pm_masks = [
        sum(1 << edges.index(a, b) for a, b in m)
        for m in enumerate_perfect_matchings(n)
    ]

    rectangles = []
    pairs = []
    for k1 in range(edges.n_edges):
        a1, b1 = edges.pairs[k1]
        for k2 in range(k1 + 1, edges.n_edges):
            a2, b2 = edges.pairs[k2]
            if len({a1, b1, a2, b2}) < 4:
                continue
            want = (1 << k1) | (1 << k2)
            rows = frozenset(
                i for i, cm in enumerate(cut_masks) if cm & want == want
            )
            cols = frozenset(
                j for j, pm in enumerate(pm_masks) if pm & want == want
            )
            rectangles.append(Rectangle(rows, cols))
            pairs.append(((a1, b1), (a2, b2)))
    return MatchingCover(n, slack, tuple(rectangles), tuple(pairs))


# ---------------------------------------------------------------------------
# Heuristic nonnegative factorization

def _padded_trivial(m: ExactMatrix, r: int) -> Factorization | None:
    if r >= m.nrows:
        left = ExactMatrix.identity(m.nrows)
        right = m
        if r > m.nrows:
            left = left.hstack(ExactMatrix.zeros(m.nrows, r - m.nrows))
            right = right.vstack(ExactMatrix.zeros(r - m.nrows, m.ncols))
        return Factorization(left, right)
    if r >= m.ncols:
        left = m
        right = ExactMatrix.identity(m.ncols)
        if r > m.ncols:
            left = left.hstack(ExactMatrix.zeros(m.nrows, r - m.ncols))
            right = right.vstack(ExactMatrix.zeros(r - m.ncols, m.ncols))
        return Factorization(left, right)
    return None


def _extreme_row_indices(m: ExactMatrix) -> list[int]:
    """Rows that are not conic combinations of the other rows."""
    out = []
    rows = [m.row(i) for i in range(m.nrows)]
    for i in range(m.nrows):
        others = ExactMatrix([rows[k] for k in range(m.nrows) if k != i])
        if conic_combination(others, rows[i]) is None:
            out.append(i)
    return out


def _distinct_rows(m: ExactMatrix, r: int) -> list[int]:
    seen = set()
    out = []
    for i in range(m.nrows):
        row = m.row(i)
        if any(row) and row not in seen:
            seen.add(row)
            out.append(i)
        if len(out) == r:
            break
    return out


def _solve_side(m: ExactMatrix, basis: ExactMatrix) -> ExactMatrix:
    """Per row of m: nonnegative u minimizing the max |u . basis - row|
    residual, as the rows of a coefficient matrix."""
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
        # variables: u_0..u_{r-1}, t; minimize t with |u . col_j - s_j| <= t
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
        res = lp_solve((ineq_rows, ineq_rhs), None, obj, sense="min")
        if not res.is_optimal:
            raise AssertionError(f"bounded residual LP came back {res.status}")
        rows_out.append(res.point[:r])
    return ExactMatrix(rows_out)


def _exact_repair(m: ExactMatrix, right: ExactMatrix) -> Factorization | None:
    left_rows = []
    for i in range(m.nrows):
        u = conic_combination(right, m.row(i))
        if u is None:
            return None
        left_rows.append(u)
    return Factorization(ExactMatrix(left_rows), right)


def nmf_heuristic(
    s: SlackMatrix | ExactMatrix,
    r: int,
    restarts: int = 3,
    seed: int = 0,
    sweeps: int = 4,
) -> Factorization | None:
    """Search for a verified rank-r nonnegative factorization.

    Starts (in order): rows that generate the row cone, the first distinct
    rows, then `restarts` seeded random row mixes.  Each start runs a few
    alternating min-max-residual LP sweeps; a candidate counts only if exact
    conic repair of one side against the other reproduces S exactly.
    """
    m = as_matrix(s)
    if r < 1:
        raise InputError("inner dimension must be >= 1")
    _require_nonnegative(restarts=restarts)
    if r < rank(m):
        return None
    trivial = _padded_trivial(m, r)
    if trivial is not None:
        return trivial

    rng = random.Random(seed)
    starts: list[ExactMatrix] = []
    extreme = _extreme_row_indices(m)
    if 0 < len(extreme) <= r:
        pad = [i for i in _distinct_rows(m, m.nrows) if i not in extreme]
        pick = sorted((extreme + pad)[:r])
        if len(pick) == r:
            starts.append(ExactMatrix([m.row(i) for i in pick]))
    row_pick = _distinct_rows(m, r)
    if len(row_pick) == r:
        starts.append(ExactMatrix([m.row(i) for i in row_pick]))
    for _ in range(restarts):
        mix = []
        for _ in range(r):
            weights = [rng.randint(0, 3) for _ in range(m.nrows)]
            mix.append(
                [
                    sum(w * m.entry(i, j) for i, w in enumerate(weights) if w)
                    for j in range(m.ncols)
                ]
            )
        starts.append(ExactMatrix(mix))

    for right in starts:
        for _ in range(sweeps):
            fac = _exact_repair(m, right)
            if fac is not None and verify_factorization(m, fac):
                return fac
            left = _solve_side(m, right)
            right = _solve_side(m.transpose(), left.transpose()).transpose()
        fac = _exact_repair(m, right)
        if fac is not None and verify_factorization(m, fac):
            return fac
    return None


# ---------------------------------------------------------------------------
# Combined report

@dataclass(frozen=True)
class Certificate:
    method: str
    value: int
    witness: object = None


@dataclass(frozen=True)
class BoundConfig:
    """Search budgets, the seed, and the weight matrices whose hyperplane
    bounds to add; each alpha comes from exact max_rectangle_value."""

    cover_limit: int = 200_000
    cover_cap: int = 20
    nmf_restarts: int = 2
    nmf_cell_cap: int = 256
    nmf_max_tries: int = 3
    seed: int = 0
    hyperplane: tuple[WeightMatrix, ...] = ()

    def __post_init__(self):
        budgets = ("cover_limit", "cover_cap", "nmf_restarts", "nmf_cell_cap", "nmf_max_tries")
        _require_nonnegative(**{name: getattr(self, name) for name in budgets})


@dataclass(frozen=True)
class BoundReport:
    lower: int
    upper: int
    certificates: tuple[Certificate, ...]
    upper_witness: Factorization | None


def nonnegative_rank_bounds(
    s: SlackMatrix | ExactMatrix, config: BoundConfig = BoundConfig()
) -> BoundReport:
    """Certified interval for the nonnegative rank.

    lower = max over re-verified certificates (rank, fooling set, exact
    cover, and per configured weight matrix the hyperplane bound, with its
    exact alpha rectangle as witness); upper = min(rows, cols, best
    verified heuristic factorization)."""
    m = as_matrix(s)
    if not m.is_nonnegative():
        raise InputError("nonnegative rank is defined for nonnegative matrices")
    supports = _supports(m)
    if not any(supports):
        return BoundReport(0, 0, (Certificate("rank", 0),), None)

    certs: list[Certificate] = [Certificate("rank", rank(m))]

    fooling = fooling_set_greedy(m, config.seed)
    if not _check_fooling(supports, fooling):
        raise AssertionError("greedy fooling set failed re-verification")
    certs.append(Certificate("fooling", len(fooling), fooling))

    if m.nrows <= config.cover_cap and m.ncols <= config.cover_cap:
        cover = rectangle_cover_exact(m, config.cover_limit, config.cover_cap)
        if cover.status == "optimal":
            if not _check_cover(supports, cover.rectangles):
                raise AssertionError("exact cover failed re-verification")
            certs.append(Certificate("cover", cover.size, cover.rectangles))

    for w in config.hyperplane:
        alpha = max_rectangle_value(w)
        value = hyperplane_bound(w, m, alpha.value)
        certs.append(Certificate("hyperplane", max(0, math.ceil(value)), (w, alpha)))

    lower = max(c.value for c in certs)

    upper = min(m.nrows, m.ncols)
    witness = _padded_trivial(m, upper)
    if m.nrows * m.ncols <= config.nmf_cell_cap:
        tried = 0
        for r in range(max(lower, 1), upper):
            if tried >= config.nmf_max_tries:
                break
            tried += 1
            fac = nmf_heuristic(m, r, config.nmf_restarts, config.seed)
            if fac is not None:
                if not verify_factorization(m, fac):
                    raise AssertionError("heuristic factorization failed re-verification")
                upper = r
                witness = fac
                break

    over = [f"{c.method} ({c.value})" for c in certs if c.value > upper]
    if over:
        raise AssertionError(
            f"certificates exceed the verified upper bound {upper}: {', '.join(over)}"
        )
    return BoundReport(lower, upper, tuple(certs), witness)


def report_to_json(report: BoundReport, upper_witness_file: str | None = None) -> dict:
    out = {
        "lower": report.lower,
        "upper": report.upper,
        "certificates": [
            {"method": c.method, "value": c.value} for c in report.certificates
        ],
        "upper_witness_file": upper_witness_file,
    }
    return out


def factorization_to_json(fac: Factorization) -> dict:
    return {
        "left": matrix_to_json(fac.left.rows()),
        "right": matrix_to_json(fac.right.rows()),
    }


def factorization_from_json(obj: dict) -> Factorization:
    try:
        return Factorization(ExactMatrix(obj["left"]), ExactMatrix(obj["right"]))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed factorization JSON: {exc}") from exc
