"""Exact linear programming over the rationals.

`lp_solve` and `lp_solve_all` take each side of the system as a (rows, rhs)
pair, `((), ())` when the side has no rows.  Each call clears its rows of
denominators once, as `IntegerRows`: row i and its right-hand side times
the lcm of their denominators, one integer list with the right-hand side
last.  The tableau is built from those rows, and `scaled_slacks` on them
checks the answer in integers; the checks raise explicitly, so `python -O`
keeps them.  `conic_combination` takes an `ExactMatrix` and reads its
columns cleared from it, which clears them once, rescales only a column
whose target entry has a denominator the column's scale lacks, and checks
those rows as `IntegerRows.cleared`.

Two-phase primal simplex with integer-preserving pivots (Edmonds): the full
tableau always equals det(basis) times the true rational one, so every entry
stays an integer (adjugate argument) and every pivot divides exactly by the
previous pivot.  In that tableau a basic column is `den` in its own row and
0 in every other row, the objective rows included, so the solver never
stores it.  It keeps an integer dictionary instead: each row holds one slot
per nonbasic column, then the right-hand side, and `cols` maps each slot to
its tableau column id.  A pivot swaps the entering and the leaving variable
in their shared slot.  A row that the pivot does not touch (its entry in
the entering column is zero) keeps the scale of its last update, so each
row carries its own scale; a row at scale d is the full tableau's row times
d / den.  Every decision reads signs or ratios within one row, and every
rule compares column ids, never slots, so the pivots, points and values are
exactly those of the full tableau.

Column ids: the variables in order, a free one taking two consecutive ids
(its plus, then its minus column), then one slack or surplus per
inequality row, then the artificials.  The minus column of a free variable
is the negated plus column in every tableau, objective rows included, so
only one of the pair is ever stored.  While both are nonbasic, one slot
holds the column that `cols` names there, and every rule reads its twin as
that slot negated; when the twin is chosen to enter, the slot is flipped
in place (every entry negated, `cols` relabelled) and the ordinary pivot
runs.  While one of the pair is basic, the other is a unit column with
zero reduced cost, which can neither enter nor be chosen by the drive-out,
so it needs no slot.

Phase one, the drive-out of artificials and their drop read only the
constraint rows, so one solve carries several objective rows through them
and then runs phase two for each objective on its own copy of that state
(the last one in place).  Each objective gets exactly the pivots, point
and value of a solve with that objective alone.

When every goal is zero (a feasibility question, as in
`conic_combination`), phase one stops as soon as its objective, minus the
sum of the artificials, reads 0, and the point is read from that basis;
the drive-out, the drop and phase two are skipped.  The point is the one
the full run would give: at a basic feasible point that objective is never
positive, so once it reads 0 every later phase-one pivot leaves on a row
whose right-hand side is 0, and so does every drive-out pivot (the
artificials are all 0 by then).  Such degenerate pivots change no
variable's value, and phase two with a zero objective makes no pivot.
With any nonzero goal the full run stays: phase two starts from the basis
where phase one ended, and a different basis could pick a different
optimum among ties.

Pivot choice is Dantzig's rule (ties to the smallest column id), switching
to Bland's rule after a streak of degenerate pivots, which keeps runs fast
and still guarantees termination.  The ratio test breaks ties by basis id.
All decisions compare integers, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from ..errors import InputError
from ..record import record
from .matrix import ExactMatrix, IntegerRows, clear_denominators, rat

_DEGENERATE_SWITCH = 8
_PIVOT_CAP = 500_000


@record
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _coerce_system(
    system: tuple, nvars: int | None, what: str
) -> tuple[IntegerRows, int | None]:
    """Check a (rows, rhs) pair, `((), ())` for no rows, and clear it to
    `IntegerRows`."""
    rows = [[rat(x) for x in row] for row in system[0]]
    rhs = [rat(x) for x in system[1]]
    if len(rows) != len(rhs):
        raise InputError(
            f"{what}: {len(rows)} rows but {len(rhs)} right-hand sides"
        )
    for row in rows:
        if nvars is None:
            nvars = len(row)
        elif len(row) != nvars:
            raise InputError(
                f"{what}: row width {len(row)} does not match variable count {nvars}"
            )
    return IntegerRows(rows, rhs), nvars


def lp_solve(
    ineqs: tuple,
    eqs: tuple,
    objective: Sequence,
    sense: str = "max",
) -> LPResult:
    """Solve max/min c.x subject to A x <= b and E x = f, x free.  Each side
    is a (rows, rhs) pair, `((), ())` when it has no rows.

    Returns an exact optimum with a witness point, or the infeasible /
    unbounded verdict.  Deterministic: identical inputs give identical
    outputs.
    """
    return lp_solve_all(ineqs, eqs, [objective], sense)[0]


def lp_solve_all(
    ineqs: tuple,
    eqs: tuple,
    objectives: Sequence[Sequence],
    sense: str = "max",
) -> list[LPResult]:
    """`lp_solve` for each objective over one system, with one phase one.

    Result k equals `lp_solve(ineqs, eqs, objectives[k], sense)`.  An empty
    objective is the zero objective; nonempty ones must share one width.
    """
    if sense not in ("max", "min"):
        raise InputError(f"sense must be 'max' or 'min', got {sense!r}")
    cs = [[rat(x) for x in c] for c in objectives]
    widths = sorted({len(c) for c in cs if c})
    if len(widths) > 1:
        raise InputError(f"objective widths differ: {widths}")
    nvars = widths[0] if widths else None
    le, nvars = _coerce_system(ineqs, nvars, "ineqs")
    eq, nvars = _coerce_system(eqs, nvars, "eqs")
    if not cs:
        return []
    if nvars is None:
        raise InputError("cannot infer variable count: no objective, no rows")
    cs = [c or [Fraction(0)] * nvars for c in cs]

    sign = 1 if sense == "max" else -1
    goals = [[sign * a for a in clear_denominators(c)[0]] for c in cs]
    points = _simplex_all(le.rows, eq.rows, [False] * nvars, goals)
    results = []
    for c, point in zip(cs, points):
        if isinstance(point, str):
            results.append(LPResult(status=point))
            continue
        # Independent checks of the solver, in integers on the rows it took;
        # explicit so that `python -O` keeps them.
        if any(s < 0 for s in le.scaled_slacks(point)):
            raise AssertionError("solver returned an infeasible point")
        if any(eq.scaled_slacks(point)):
            raise AssertionError("solver returned a point violating an equality")
        value = sum((a * x for a, x in zip(c, point) if x), Fraction(0))
        results.append(LPResult(status="optimal", value=value, point=tuple(point)))
    return results


def conic_combination(
    rows: ExactMatrix, target: Sequence, free: int = 0
) -> tuple[Fraction, ...] | None:
    """Find u with sum_l u_l * rows[l] == target, or None.  Every u_l is
    nonnegative except those of the last `free` rows, which are free.

    Pure feasibility: phase one of the simplex, one equality per coordinate
    of the target, stopped at its first feasible basis.
    """
    tgt = [rat(x) for x in target]
    if len(tgt) != rows.ncols:
        raise InputError(
            f"target length {len(tgt)} does not match row width {rows.ncols}"
        )
    nvars = rows.nrows
    if not 0 <= free <= nvars:
        raise InputError(f"free must be between 0 and {nvars}, got {free}")
    # One equality per column, cleared against its target entry: the matrix
    # holds its columns cleared, and a column is rescaled only when its
    # target entry has a denominator the column's scale lacks.
    eq = []
    for (col, scale), t in zip(rows.cleared_columns(), tgt):
        if scale % t.denominator:
            grow = t.denominator // gcd(scale, t.denominator)
            col, scale = [a * grow for a in col], scale * grow
        eq.append([*col, t.numerator * (scale // t.denominator)])
    nonneg = [True] * (nvars - free) + [False] * free
    point = _simplex_all([], eq, nonneg, [[0] * nvars])[0]
    if isinstance(point, str):
        if point == "infeasible":
            return None
        raise AssertionError("feasibility program cannot be unbounded")
    if any(IntegerRows.cleared(eq).scaled_slacks(point)):
        raise AssertionError("solver returned a point off the target")
    if any(x < 0 for x in point[: nvars - free]):
        raise AssertionError("solver returned a negative multiplier")
    return tuple(point)


def _simplex(
    le_rows: list[list[Fraction]],
    le_rhs: list[Fraction],
    eq_rows: list[list[Fraction]],
    eq_rhs: list[Fraction],
    nonneg: list[bool],
    goal: list[Fraction],
) -> list[Fraction] | str:
    """`_simplex_all` over rational rows, with the one objective `goal`:
    the entry the differential tests drive with a reference's inputs."""
    goals = [clear_denominators(goal)[0]]
    le, eq = IntegerRows(le_rows, le_rhs).rows, IntegerRows(eq_rows, eq_rhs).rows
    return _simplex_all(le, eq, nonneg, goals)[0]


def _simplex_all(
    le: list[list[int]],
    eq: list[list[int]],
    nonneg: list[bool],
    goals: list[list[int]],
) -> list[list[Fraction] | str]:
    """Core solver, maximization: a point or a status string per goal.
    `le` and `eq` hold `IntegerRows.rows`, right-hand side last, and `goals`
    the objectives times their common denominators; none is modified."""
    nvars = len(nonneg)
    nonneg = list(nonneg)

    # Presolve: a row -x_i <= 0 is just a sign bound, not worth a tableau row.
    kept_le: list[int] = []
    for ridx, row in enumerate(le):
        nz = [(j, a) for j, a in enumerate(row) if a]  # a zero rhs adds no entry
        if row[-1] == 0 and len(nz) == 1 and nz[0][1] < 0:
            nonneg[nz[0][0]] = True
        else:
            kept_le.append(ridx)

    # Column layout: free vars get a plus and a minus column id, twins of
    # each other; the plus column is the one stored at the start.
    col_var: list[tuple[int, int]] = []  # (var index, sign)
    twin: dict[int, int] = {}
    for i in range(nvars):
        col_var.append((i, +1))
        if not nonneg[i]:
            plus = len(col_var) - 1
            twin[plus], twin[plus + 1] = plus + 1, plus
            col_var.append((i, -1))
    nstruct = len(col_var)

    # Assemble rows, each with a nonnegative right-hand side; the tableau
    # rows below are new lists, so the caller's rows are only read.
    body: list[Sequence[int]] = []
    kinds: list[str] = []  # "slack" | "flipped" | "eq"
    for ridx in kept_le:
        row = le[ridx]
        if row[-1] >= 0:
            body.append(row)
            kinds.append("slack")
        else:
            body.append([-a for a in row])
            kinds.append("flipped")
    for row in eq:
        body.append(row if row[-1] >= 0 else [-a for a in row])
        kinds.append("eq")

    # Tableau column ids: the structural columns, then one slack (basic) or
    # surplus (nonbasic) column per inequality row, then one artificial
    # (basic) per flipped or equality row.  Slots start out as the plus
    # structural columns and the surplus columns.
    flipped = [i for i, kind in enumerate(kinds) if kind == "flipped"]
    cols = [j for j, (_, s) in enumerate(col_var) if s > 0] + [nstruct + i for i in flipped]
    rows: list[list[int]] = []
    basis: list[int] = []
    art_cols: set[int] = set()
    for i, kind in enumerate(kinds):
        rows.append(body[i][:-1] + [-(i == f) for f in flipped] + body[i][-1:])
        if kind == "slack":
            basis.append(nstruct + i)
        else:
            basis.append(nstruct + len(kept_le) + len(art_cols))
            art_cols.add(basis[-1])

    # Phase-2 objective rows: z_j - c_j with the all-logical starting basis;
    # none when every goal is zero, as phase two then never runs.
    feasibility = not any(any(goal) for goal in goals)
    pad = [0] * (len(flipped) + 1)
    objs = [] if feasibility else [[-a for a in goal] + pad for goal in goals]
    state = _State(rows, basis, cols, objs, twin)

    def basic_point(run: _State) -> list[Fraction]:
        point = [Fraction(0)] * nvars
        for row, d, b in zip(run.rows, run.scales, run.basis):
            if b < nstruct:
                v, s = col_var[b]
                point[v] += Fraction(s * row[-1], d)
        return point

    if art_cols:
        # Phase-1 objective: maximize minus the sum of artificials.
        obj1 = [-sum(c) for c in zip(*(r for r, b in zip(rows, basis) if b in art_cols))]
        state.objs.append(obj1)
        _optimize(state, obj1, phase=1, stop_at_zero=feasibility)
        if obj1[-1] != 0:
            return ["infeasible"] * len(goals)
        state.objs.pop()
        if not feasibility:
            _drive_out_artificials(state, art_cols)
            _drop_columns(state, art_cols)
    if feasibility:
        # Every pivot left would be degenerate: the basis holds the point.
        return [basic_point(state) for _ in goals]

    out: list[list[Fraction] | str] = []
    objs = state.objs
    for k, obj in enumerate(objs):
        run = state.branch() if k < len(objs) - 1 else state
        run.objs = [obj]
        if _optimize(run, obj, phase=2) == "unbounded":
            out.append("unbounded")
            continue
        out.append(basic_point(run))
    return out


class _State:
    """`rows[i]` is `scales[i]` times row i of the true dictionary over the
    slots, then its right-hand side; `objs` holds the objective rows in the
    same layout, at scale `den`, the determinant of the basis.  `cols[s]` is
    the column id of slot s, `basis[i]` that of row i's basic variable.
    `twin` maps each column id of a free variable to the other one."""

    __slots__ = ("rows", "scales", "basis", "cols", "objs", "den", "twin")

    def __init__(self, rows, basis, cols, objs, twin):
        self.rows = rows
        self.scales = [1] * len(rows)
        self.basis = basis
        self.cols = cols
        self.objs = objs
        self.den = 1
        self.twin = twin

    def branch(self) -> _State:
        """A copy, without objective rows, whose pivots leave this one alone."""
        other = _State([row[:] for row in self.rows], self.basis[:], self.cols[:], [], self.twin)
        other.scales = self.scales[:]
        other.den = self.den
        return other


def _flip(state: _State, s: int) -> None:
    """Store the twin of slot s's column in its place: its negation."""
    for row in state.rows:
        row[s] = -row[s]
    for obj in state.objs:
        obj[s] = -obj[s]
    state.cols[s] = state.twin[state.cols[s]]


def _pivot(state: _State, r: int, s: int) -> None:
    """Integer pivot on row r and slot s; the leaving variable takes slot s.

    A row whose slot-s entry f is zero keeps its true values, so it is left
    alone at its old scale: each row is rescaled only when a pivot touches
    it.  At scale d, (a * p - f * b) / d is the full tableau's next entry,
    so the division is exact.  When d divides p, it also divides f * b,
    and the row becomes its entries times p / d less f * b / d on the
    pivot row's support alone; when p == d, only that support changes.
    """
    den, rows, scales = state.den, state.rows, state.scales
    prow = rows[r]
    if scales[r] != den:
        prow[:] = [a * den // scales[r] if a else 0 for a in prow]
    p = prow[s]
    if not p:
        raise AssertionError("pivot on a zero entry")
    support = [(j, b) for j, b in enumerate(prow) if b]

    def eliminate(row: list[int], d: int) -> None:
        f = row[s]
        if p % d:
            row[:] = [(a * p - f * b) // d if a or b else 0 for a, b in zip(row, prow)]
        else:
            if p != d:
                q = p // d
                row[:] = [a * q for a in row]
            for j, b in support:
                row[j] -= f * b // d
        row[s] = -(f * den // d)

    for i, row in enumerate(rows):
        if row[s] and i != r:
            eliminate(row, scales[i])
            scales[i] = p
    for obj in state.objs:
        if obj[s]:
            eliminate(obj, den)
        elif p != den:
            obj[:] = [a * p // den if a else 0 for a in obj]
    prow[s] = den
    scales[r] = state.den = p
    state.basis[r], state.cols[s] = state.cols[s], state.basis[r]
    if p < 0:
        # Only reachable from artificial drive-out pivots on a zero row.
        for i, row in enumerate(rows):
            if scales[i] < 0:
                row[:] = [-a for a in row]
                scales[i] = -p
        for obj in state.objs:
            obj[:] = [-a for a in obj]
        state.den = -p


def _optimize(state: _State, obj: list[int], phase: int, stop_at_zero: bool = False) -> str:
    """Pivot until `obj` is optimal, or with `stop_at_zero` until its value
    first reads 0; returns "optimal" or "unbounded"."""
    stall = 0
    twin = state.twin
    for _ in range(_PIVOT_CAP):
        if stop_at_zero and obj[-1] == 0:
            return "optimal"
        cols = state.cols
        # (reduced cost, column id, slot): a stored column with a negative
        # reduced cost, or the twin of one with a positive reduced cost.
        negative = [
            (v, cols[s], s) if v < 0 else (-v, twin[cols[s]], s)
            for s, v in enumerate(obj[:-1])
            if v < 0 or (v and cols[s] in twin)
        ]
        if not negative:
            return "optimal"
        if stall >= _DEGENERATE_SWITCH:
            _, col, enter = min(negative, key=lambda t: t[1])  # Bland
        else:
            _, col, enter = min(negative)  # Dantzig
        if col != cols[enter]:
            _flip(state, enter)
        basis = state.basis
        leave = -1
        lnum = lden = None  # ratio lnum/lden of current best
        for i, row in enumerate(state.rows):
            a = row[enter]
            if a > 0:
                num = row[-1]
                if leave < 0 or num * lden < lnum * a or (
                    num * lden == lnum * a and basis[i] < basis[leave]
                ):
                    leave, lnum, lden = i, num, a
        if leave < 0:
            if phase != 2:
                raise AssertionError("phase one is bounded by construction")
            return "unbounded"
        stall = stall + 1 if lnum == 0 else 0
        _pivot(state, leave, enter)
    raise AssertionError("pivot cap exceeded; termination logic broken")


def _drive_out_artificials(state: _State, art_cols: set[int]) -> None:
    """Replace basic artificials (all at value zero here) or drop their rows.

    The entering column is the nonzero one of least id; a slot with a twin
    offers the lesser id of the pair."""
    twin = state.twin
    i = 0
    while i < len(state.rows):
        if state.basis[i] in art_cols:
            row = state.rows[i]
            cands = [
                (min(j, twin.get(j, j)), s)
                for s, j in enumerate(state.cols)
                if j not in art_cols and row[s]
            ]
            if not cands:
                # Redundant constraint: zero over all non-artificial columns.
                del state.rows[i], state.scales[i], state.basis[i]
                continue
            if row[-1]:
                raise AssertionError("feasible phase one left a positive artificial")
            col, s = min(cands)
            if col != state.cols[s]:
                _flip(state, s)
            _pivot(state, i, s)
        i += 1


def _drop_columns(state: _State, cols: set[int]) -> None:
    """Drop nonbasic columns.  Column ids stay: the artificials are the last."""
    keep = [s for s, j in enumerate(state.cols) if j not in cols] + [len(state.cols)]
    state.rows = [[row[s] for s in keep] for row in state.rows]
    state.objs = [[obj[s] for s in keep] for obj in state.objs]
    state.cols = [state.cols[s] for s in keep[:-1]]
