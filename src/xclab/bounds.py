"""Lower and upper bounds on the nonnegative rank of a slack matrix.

Lower bounds: linear-algebra rank, greedy fooling sets, exact minimum
rectangle covers of the support (branch and bound over maximal support
rectangles), and the hyperplane separation bound <W,S> / (max|S| * alpha)
where alpha maximizes <W,R> over binary rank-1 matrices R.  Upper bounds:
trivial slack-variable factorizations and an alternating-LP heuristic whose
candidates count only after an exact rational repair verifies.

Weight matrices, with their FORBIDDEN minus-infinity cells, are
`sepmeasure.WeightMatrix`: class codes over a short table of integers.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .errors import InputError
from .exactla import (
    ExactMatrix,
    conic_combination,
    lp_solve,
    matrix_to_json,
    rank,
)
from .polytope import Rectangle, bits
from .record import record
from .sepmeasure import WeightMatrix
from .yannakakis import Factorization, verify_factorization


def _require_nonnegative(**budgets: int) -> None:
    for name, value in budgets.items():
        if value < 0:
            raise InputError(f"{name} must be nonnegative, got {value}")


# ---------------------------------------------------------------------------
# Maximum rectangle value (the alpha of the separation bound)

@record
class RectangleValue:
    value: Fraction
    rectangle: Rectangle
    certified: bool


# Largest min(rows, cols) that exact mode walks: 2**22 row subsets.
_ALPHA_CAP = 22


def max_rectangle_value(
    w: WeightMatrix, mode: str = "exact", restarts: int = 20, seed: int = 0
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
    lines = tuple(zip(*w.codes)) if transposed else w.codes
    nrows, ncols = len(lines), len(lines[0])
    if nrows > _ALPHA_CAP:
        raise InputError(
            f"exact mode needs min(rows, cols) <= {_ALPHA_CAP}, got {nrows}; "
            "use heuristic mode"
        )
    support = [[(j, w.levels[c]) for j, c in enumerate(line) if w.levels[c]] for line in lines]
    forb_cols = [[j for j, c in enumerate(line) if w.levels[c] is None] for line in lines]

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

    forbidden = w.forbidden_masks()
    if transposed:
        rows, check = w.best_rows(best_mask, forbidden)
        cols = best_mask
    else:
        cols, check = w.best_columns(best_mask, forbidden)
        rows = best_mask
    if check != best_value:
        raise AssertionError(f"Gray-code value {best_value}, its rectangle sums to {check}")
    return RectangleValue(Fraction(best_value, w.scale), Rectangle.of(bits(rows), bits(cols)), True)


def _max_rectangle_heuristic(w: WeightMatrix, restarts: int, seed: int) -> RectangleValue:
    _require_nonnegative(restarts=restarts)
    forbidden = w.forbidden_masks()
    rng = random.Random(seed)
    best_value = 0
    best = (0, 0)
    for _ in range(max(1, restarts)):
        rows = sum(1 << i for i in range(w.nrows) if rng.random() < 0.5)
        value = -1
        while True:
            cols = w.best_columns(rows, forbidden)[0]
            new_rows, v2 = w.best_rows(cols, forbidden)
            if v2 <= value:
                break
            rows, value = new_rows, v2
        if value > best_value:
            best_value = value
            best = (rows, w.best_columns(rows, forbidden)[0])
    return RectangleValue(
        Fraction(best_value, w.scale), Rectangle.of(bits(best[0]), bits(best[1])), False
    )


def hyperplane_bound(w: WeightMatrix, m: ExactMatrix) -> tuple[Fraction, RectangleValue]:
    """<W,S> / (max|S| * alpha), a lower bound on the nonnegative rank of the
    nonnegative S, with alpha from exact max_rectangle_value(w).  Returns the
    bound and alpha, whose rectangle is the witness.  Requires FORBIDDEN
    cells of W to sit on zero slack."""
    if not m.is_nonnegative():
        raise InputError("the hyperplane bound needs a nonnegative slack matrix")
    den = lcm(*m.scales)
    scaled = [[a * (den // scale) for a in row] for row, scale in zip(m.ints, m.scales)]
    inner = w.frobenius_with(scaled) / den
    alpha = max_rectangle_value(w)
    norm = m.max_norm()
    # Every single cell is a rectangle, so alpha = 0 leaves <W,S> <= 0.
    if alpha.value == 0 or norm == 0:
        return Fraction(0), alpha
    return inner / (norm * alpha.value), alpha


# ---------------------------------------------------------------------------
# The support of S, and fooling sets

def _supports(m: ExactMatrix) -> list[int]:
    """The support of m: per row, one int whose bit j is set when column j
    holds a nonzero.  The fooling-set and cover bounds and their re-checks
    all read this."""
    return [sum(1 << j for j, x in enumerate(row) if x) for row in m.ints]


def _support_cells(supports: list[int]) -> list[tuple[int, int]]:
    """The support cells (i, j) in row-major order."""
    return [(i, j) for i, supp in enumerate(supports) for j in bits(supp)]


def fooling_set_greedy(m: ExactMatrix, seed: int = 0) -> tuple[tuple[int, int], ...]:
    """Greedy fooling set: support cells no two of which fit in one support
    rectangle.  Its size lower-bounds the rectangle cover number."""
    supports = _supports(m)
    cells = _support_cells(supports)
    rng = random.Random(seed)
    rng.shuffle(cells)
    chosen: list[tuple[int, int]] = []
    for (i, j) in cells:
        if not any(supports[i] >> jj & 1 and supports[ii] >> j & 1 for ii, jj in chosen):
            chosen.append((i, j))
    return tuple(sorted(chosen))


def _check_fooling(supports: list[int], cells: Sequence[tuple[int, int]]) -> bool:
    if any(not supports[i] >> j & 1 for i, j in cells):
        return False
    return not any(
        supports[i] >> jj & 1 and supports[ii] >> j & 1
        for (i, j), (ii, jj) in itertools.combinations(cells, 2)
    )


# ---------------------------------------------------------------------------
# Exact rectangle covering of the support

@record
class CoverResult:
    status: str  # "optimal" or "exceeded"
    size: int | None
    rectangles: tuple[Rectangle, ...]
    explored: int


def _maximal_rectangles(
    supports: list[int], ncols: int, spend: Callable[[], bool]
) -> list[tuple[int, int]] | None:
    """All maximal support rectangles as (row mask, column mask) pairs, in
    lectic order, or None once `spend` refuses a closure computation."""
    rects = []
    universe = (1 << ncols) - 1

    def closed(col_set: int):
        if not spend():
            return None
        rows, cols = 0, universe
        for i, supp in enumerate(supports):
            if not col_set & ~supp:
                rows |= 1 << i
                cols &= supp
        return rows, cols

    found = closed(0)
    if found is None:
        return None
    rows, cols = found
    if rows and cols:
        rects.append(found)
    while cols != universe:
        for c in range(ncols - 1, -1, -1):
            bit = 1 << c
            if cols & bit:
                continue
            prefix = cols & (bit - 1)
            found = closed(prefix | bit)
            if found is None:
                return None
            rows2, cols2 = found
            # lectic successor: the closure may not add anything below c
            if not cols2 & ~prefix & (bit - 1):
                rows, cols = rows2, cols2
                if rows and cols:
                    rects.append(found)
                break
        else:
            break
    return rects


# Default budgets of the exact cover: search steps, and the largest row or
# column count it accepts.
COVER_LIMIT = 200_000
COVER_CAP = 20


def rectangle_cover_exact(
    m: ExactMatrix, limit: int = COVER_LIMIT, cap: int = COVER_CAP
) -> CoverResult:
    """Exact minimum number of support rectangles covering the support of S,
    by branch and bound over maximal support rectangles.  Every closure and
    every search node costs one step; the result is "exceeded", with
    `explored == limit`, when the search needs more than `limit` steps.

    The search branches on an uncovered cell held by the fewest maximal
    rectangles, ties broken by (i, j), and tries those rectangles in lectic
    order.  Cells are numbered by that key, so a state is one int of
    uncovered cell bits and the branching cell is its lowest set bit."""
    _require_nonnegative(limit=limit, cap=cap)
    if m.nrows > cap or m.ncols > cap:
        raise InputError(
            f"exact cover needs dimensions <= {cap}, got {m.nrows}x{m.ncols}"
        )
    supports = _supports(m)
    if not any(supports):
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

    cells = _support_cells(supports)
    holders: dict[tuple[int, int], list[int]] = {c: [] for c in cells}
    for k, (rows, cols) in enumerate(rects):
        for i in bits(rows):
            for j in bits(cols):
                holders[i, j].append(k)
    order = sorted(cells, key=lambda c: (len(holders[c]), c))
    cover = [0] * len(rects)
    for b, c in enumerate(order):
        for k in holders[c]:
            cover[k] |= 1 << b
    # per cell bit: its rectangles, each with the mask that keeps the
    # cells it leaves uncovered
    by_cell = [[(k, ~cover[k]) for k in holders[c]] for c in order]
    full = (1 << len(cells)) - 1

    # greedy start gives an upper bound and a fallback witness
    greedy: list[int] = []
    left = full
    while left:
        k = max(range(len(rects)), key=lambda k: ((cover[k] & left).bit_count(), -k))
        greedy.append(k)
        left &= ~cover[k]
    best: list[int] = greedy
    chosen: list[int] = []

    def search(uncovered: int) -> bool:
        """Expand a node whose step is paid: each child costs one step
        before it is expanded or pruned.  False once the budget refuses a
        child."""
        nonlocal explored, best
        depth = len(chosen) + 1
        for k, keep in by_cell[(uncovered & -uncovered).bit_length() - 1]:
            if explored == limit:
                return False
            explored += 1
            left = uncovered & keep
            if not left:
                if depth < len(best):
                    best = chosen + [k]
            elif depth + 1 < len(best):
                chosen.append(k)
                if not search(left):
                    return False
                chosen.pop()
        return True

    if not spend() or (len(best) > 1 and not search(full)):
        return CoverResult("exceeded", None, (), explored)
    return CoverResult(
        "optimal",
        len(best),
        tuple(Rectangle.of(bits(rects[k][0]), bits(rects[k][1])) for k in best),
        explored,
    )


def _check_cover(supports: list[int], rectangles: Sequence[Rectangle]) -> bool:
    covered = {cell for r in rectangles for cell in r.cells()}
    return covered == set(_support_cells(supports))


# ---------------------------------------------------------------------------
# Heuristic nonnegative factorization

def _padded_trivial(m: ExactMatrix, r: int) -> Factorization | None:
    """I * S or S * I padded with zeros to inner dimension r; None if r < both sides."""
    if r >= m.nrows:
        left, right = ExactMatrix.identity(m.nrows), m
    elif r >= m.ncols:
        left, right = m, ExactMatrix.identity(m.ncols)
    else:
        return None
    pad = r - left.ncols
    if pad:
        zero = (Fraction(0),)
        left = ExactMatrix(row + zero * pad for row in left.rows())
        right = ExactMatrix(right.rows() + (zero * m.ncols,) * pad)
    return Factorization(left, right)


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
    """The indices of the first r distinct nonzero rows."""
    first: dict[tuple, int] = {}
    for i, row in enumerate(zip(m.ints, m.scales)):
        if any(row[0]):
            first.setdefault(row, i)
    return list(first.values())[:r]


# Largest denominator of a residual-LP point kept as a sweep iterate.
_SWEEP_DENOMINATOR = 64

# Alternating LP sweeps per nmf_heuristic start.
_SWEEPS = 4

# Default random starts of one nmf_heuristic call.
NMF_RESTARTS = 3


def _solve_side(m: ExactMatrix, basis: ExactMatrix) -> ExactMatrix:
    """Per row of m: nonnegative u minimizing the max |u . basis - row|
    residual, as the rows of a coefficient matrix.

    A row that is an exact conic combination of the basis keeps its exact
    multipliers.  Any other row keeps its residual-LP optimum with each
    entry rounded to the nearest rational of denominator at most
    _SWEEP_DENOMINATOR (`Fraction.limit_denominator` keeps values >= 0
    nonnegative).  Unrounded, the next sweep's LP would take this exact
    basic point as input, and LP inputs would grow about fourfold in bits
    per sweep.  The rounding is sound: the iterates only steer
    nmf_heuristic, which returns nothing that exact repair and
    verify_factorization have not rebuilt and checked.
    """
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
        res = lp_solve((ineq_rows, ineq_rhs), ((), ()), obj, sense="min")
        if not res.is_optimal:
            raise AssertionError(f"bounded residual LP came back {res.status}")
        rows_out.append([x.limit_denominator(_SWEEP_DENOMINATOR) for x in res.point[:r]])
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
    m: ExactMatrix, r: int, restarts: int = NMF_RESTARTS, seed: int = 0
) -> Factorization | None:
    """Search for a verified rank-r nonnegative factorization.

    Starts (in order): rows that generate the row cone, the first distinct
    rows, then `restarts` seeded random row mixes.  Each start runs _SWEEPS
    alternating min-max-residual LP sweeps; a candidate counts only if exact
    conic repair of one side against the other reproduces S exactly.

    The work is bounded: a fixed number of starts times sweeps, and every
    residual-LP point is rounded to denominators at most _SWEEP_DENOMINATOR
    before it becomes an iterate, so LP inputs do not grow from sweep to
    sweep.  The rounding cannot make a result unsound, since a returned
    factorization is rebuilt by exact conic_combination and checked by
    verify_factorization; it can only change which candidates are tried.
    """
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
        weights = [[rng.randint(0, 3) for _ in range(m.nrows)] for _ in range(r)]
        starts.append(ExactMatrix(weights) @ m)

    # The most sweeps each tried iterate had left.  The run is deterministic,
    # so meeting an iterate again with no more sweeps left than that would
    # only repeat failed repairs and solved LPs: its start stops there.
    seen: dict[ExactMatrix, int] = {}
    for right in starts:
        for left_over in range(_SWEEPS, -1, -1):
            if right in seen:
                if seen[right] >= left_over:
                    break
            else:
                fac = _exact_repair(m, right)
                if fac is not None and verify_factorization(m, fac):
                    return fac
            seen[right] = left_over
            if left_over:
                left = _solve_side(m, right)
                right = _solve_side(m.transpose(), left.transpose()).transpose()
    return None


# ---------------------------------------------------------------------------
# Combined report

@record
class Certificate:
    method: str
    value: int
    witness: object = None


@record
class BoundConfig:
    """Search budgets and the seed."""

    cover_limit: int = COVER_LIMIT
    cover_cap: int = COVER_CAP
    nmf_restarts: int = 2
    nmf_cell_cap: int = 256
    nmf_max_tries: int = 3
    seed: int = 0

    def __post_init__(self):
        budgets = ("cover_limit", "cover_cap", "nmf_restarts", "nmf_cell_cap", "nmf_max_tries")
        _require_nonnegative(**{name: getattr(self, name) for name in budgets})


@record
class BoundReport:
    lower: int
    upper: int
    certificates: tuple[Certificate, ...]
    upper_witness: Factorization | None


def nonnegative_rank_bounds(m: ExactMatrix, config: BoundConfig = BoundConfig()) -> BoundReport:
    """Certified interval for the nonnegative rank.

    lower = max over re-verified certificates (rank, fooling set, and an
    exact cover unless the rank alone reaches min(rows, cols)); upper =
    min(rows, cols, best verified heuristic factorization)."""
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

    # No cover can beat a rank that already equals min(rows, cols).
    if certs[0].value < min(m.nrows, m.ncols) and max(m.nrows, m.ncols) <= config.cover_cap:
        cover = rectangle_cover_exact(m, config.cover_limit, config.cover_cap)
        if cover.status == "optimal":
            if not _check_cover(supports, cover.rectangles):
                raise AssertionError("exact cover failed re-verification")
            certs.append(Certificate("cover", cover.size, cover.rectangles))

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
    if isinstance(obj, dict) and obj.get("found") is False:
        raise InputError("the factorize run found no factorization")
    try:
        return Factorization(ExactMatrix(obj["left"]), ExactMatrix(obj["right"]))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed factorization JSON: {exc}") from exc
