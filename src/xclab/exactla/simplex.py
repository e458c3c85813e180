"""Exact linear programming over the rationals.

Two-phase primal simplex on an integer tableau: the tableau always equals
det(basis) times the true rational dictionary, so every entry stays an
integer (adjugate argument) and every pivot divides exactly by the previous
pivot.  Pivot choice is Dantzig's rule, switching to Bland's rule after a
streak of degenerate pivots, which keeps runs fast and still guarantees
termination.  All decisions compare integers, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ..errors import InputError
from .matrix import ExactMatrix, common_denominator, rat

_DEGENERATE_SWITCH = 8
_PIVOT_CAP = 500_000


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _coerce_system(
    system: tuple | None, nvars: int | None, what: str
) -> tuple[list[list[Fraction]], list[Fraction], int | None]:
    """Normalize an (A, b) pair to rational row lists."""
    if system is None:
        return [], [], nvars
    mat, rhs = system
    if isinstance(mat, ExactMatrix):
        rows = [list(r) for r in mat.rows()]
    else:
        rows = [[rat(x) for x in row] for row in mat]
    rhs = [rat(x) for x in rhs]
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
    return rows, rhs, nvars


def lp_solve(
    ineqs: tuple | None,
    eqs: tuple | None,
    objective: Sequence,
    sense: str = "max",
) -> LPResult:
    """Solve max/min c.x subject to A x <= b and E x = f, x free.

    Returns an exact optimum with a witness point, or the infeasible /
    unbounded verdict.  Deterministic: identical inputs give identical
    outputs.
    """
    if sense not in ("max", "min"):
        raise InputError(f"sense must be 'max' or 'min', got {sense!r}")
    c = [rat(x) for x in objective]
    nvars = len(c) if c else None
    le_rows, le_rhs, nvars = _coerce_system(ineqs, nvars, "ineqs")
    eq_rows, eq_rhs, nvars = _coerce_system(eqs, nvars, "eqs")
    if nvars is None:
        raise InputError("cannot infer variable count: no objective, no rows")
    if not c:
        c = [Fraction(0)] * nvars

    goal = c if sense == "max" else [-x for x in c]
    point = _simplex(le_rows, le_rhs, eq_rows, eq_rhs, [False] * nvars, goal)
    if isinstance(point, str):
        return LPResult(status=point)

    for row, rhs in zip(le_rows, le_rhs):
        slack = rhs - sum(a * x for a, x in zip(row, point) if a)
        assert slack >= 0, "solver returned an infeasible point"
    for row, rhs in zip(eq_rows, eq_rhs):
        assert sum(a * x for a, x in zip(row, point) if a) == rhs, (
            "solver returned a point violating an equality"
        )
    value = sum(a * x for a, x in zip(c, point))
    return LPResult(status="optimal", value=value, point=tuple(point))


def conic_combination(
    rows: ExactMatrix | Iterable[Sequence], target: Sequence
) -> tuple[Fraction, ...] | None:
    """Find u >= 0 with sum_l u_l * rows[l] == target, or None.

    Pure feasibility: phase one of the simplex with nonnegative variables,
    one equality per coordinate of the target.
    """
    if not isinstance(rows, ExactMatrix):
        rows = ExactMatrix(rows)
    tgt = [rat(x) for x in target]
    if len(tgt) != rows.ncols:
        raise InputError(
            f"target length {len(tgt)} does not match row width {rows.ncols}"
        )
    nvars = rows.nrows
    eq_rows = [list(rows.column(j)) for j in range(rows.ncols)]
    zero = [Fraction(0)] * nvars
    point = _simplex(
        [], [], eq_rows, tgt, [True] * nvars, zero
    )
    if isinstance(point, str):
        if point == "infeasible":
            return None
        raise AssertionError("feasibility program cannot be unbounded")
    for erow, erhs in zip(eq_rows, tgt):
        assert sum(a * x for a, x in zip(erow, point) if a) == erhs
    assert all(x >= 0 for x in point)
    return tuple(point)


def _simplex(
    le_rows: list[list[Fraction]],
    le_rhs: list[Fraction],
    eq_rows: list[list[Fraction]],
    eq_rhs: list[Fraction],
    nonneg: list[bool],
    goal: list[Fraction],
) -> list[Fraction] | str:
    """Core solver, maximization.  Returns a point or a status string."""
    nvars = len(nonneg)
    nonneg = list(nonneg)

    # Presolve: a row -x_i <= 0 is just a sign bound, not worth a tableau row.
    kept_le: list[int] = []
    for ridx, (row, rhs) in enumerate(zip(le_rows, le_rhs)):
        nz = [(j, a) for j, a in enumerate(row) if a]
        if rhs == 0 and len(nz) == 1 and nz[0][1] < 0:
            nonneg[nz[0][0]] = True
        else:
            kept_le.append(ridx)

    # Column layout: free vars get a plus and a minus column.
    col_var: list[tuple[int, int]] = []  # (var index, sign)
    for i in range(nvars):
        col_var.append((i, +1))
        if not nonneg[i]:
            col_var.append((i, -1))
    nstruct = len(col_var)

    def scaled_int_row(row: list[Fraction], rhs: Fraction) -> tuple[list[int], int]:
        scale = common_denominator((*row, rhs))
        out = [int(row[v] * scale) * s for v, s in col_var]
        return out, int(rhs * scale)

    # Assemble tableau rows; record which need a slack or an artificial.
    body: list[list[int]] = []
    kinds: list[str] = []  # "slack" | "flipped" | "eq"
    for ridx in kept_le:
        coefs, rhs = scaled_int_row(le_rows[ridx], le_rhs[ridx])
        if rhs >= 0:
            body.append(coefs + [rhs])
            kinds.append("slack")
        else:
            body.append([-a for a in coefs] + [-rhs])
            kinds.append("flipped")
    for row, rhs in zip(eq_rows, eq_rhs):
        coefs, irhs = scaled_int_row(row, rhs)
        if irhs >= 0:
            body.append(coefs + [irhs])
        else:
            body.append([-a for a in coefs] + [-irhs])
        kinds.append("eq")

    m = len(body)
    nslack = sum(1 for k in kinds if k == "slack")
    nsurplus = sum(1 for k in kinds if k == "flipped")
    nart = sum(1 for k in kinds if k != "slack")
    width = nstruct + nslack + nsurplus + nart + 1

    tableau: list[list[int]] = []
    basis: list[int] = []
    art_cols: set[int] = set()
    slack_at = nstruct
    art_at = nstruct + nslack + nsurplus
    for i, kind in enumerate(kinds):
        row = body[i][:-1] + [0] * (nslack + nsurplus + nart) + [body[i][-1]]
        if kind == "slack":
            row[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        elif kind == "flipped":
            row[slack_at] = -1  # surplus
            slack_at += 1
            row[art_at] = 1
            basis.append(art_at)
            art_cols.add(art_at)
            art_at += 1
        else:
            row[art_at] = 1
            basis.append(art_at)
            art_cols.add(art_at)
            art_at += 1
        tableau.append(row)

    # Phase-2 objective row: z_j - c_j with the all-logical starting basis.
    cscale = common_denominator(goal)
    cint = {j: int(goal[v] * cscale) * s for j, (v, s) in enumerate(col_var)}
    obj2 = [-cint.get(j, 0) for j in range(width - 1)] + [0]
    # Phase-1 objective: maximize minus the sum of artificials.
    obj1 = [0] * width
    for i in range(m):
        if basis[i] in art_cols:
            for j in range(width):
                obj1[j] -= tableau[i][j]
    for j in art_cols:
        obj1[j] += 1

    state = _State(tableau, basis, obj1, obj2, width)

    if art_cols:
        _optimize(state, phase=1, barred=frozenset())
        if state.obj1[-1] != 0:
            return "infeasible"
        _drive_out_artificials(state, art_cols)
        _drop_columns(state, art_cols)

    status = _optimize(state, phase=2, barred=frozenset())
    if status == "unbounded":
        return "unbounded"

    values = [Fraction(0)] * len(col_var)
    for i, b in enumerate(state.basis):
        if b < len(col_var):
            values[b] = Fraction(state.tableau[i][-1], state.den)
    point = [Fraction(0)] * nvars
    for (v, s), val in zip(col_var, values):
        point[v] += val if s > 0 else -val
    return point


class _State:
    __slots__ = ("tableau", "basis", "obj1", "obj2", "width", "den")

    def __init__(self, tableau, basis, obj1, obj2, width):
        self.tableau = tableau
        self.basis = basis
        self.obj1 = obj1
        self.obj2 = obj2
        self.width = width
        self.den = 1


def _pivot(state: _State, r: int, c: int) -> None:
    """Integer pivot keeping tableau = den * true dictionary."""
    tab = state.tableau
    den = state.den
    prow = tab[r]
    p = prow[c]
    assert p != 0
    for row in tab:
        if row is prow:
            continue
        f = row[c]
        if f:
            for j in range(state.width):
                row[j] = (row[j] * p - f * prow[j]) // den
        elif p != den:
            for j in range(state.width):
                row[j] = row[j] * p // den
    for obj in (state.obj1, state.obj2):
        f = obj[c]
        if f:
            for j in range(state.width):
                obj[j] = (obj[j] * p - f * prow[j]) // den
        elif p != den:
            for j in range(state.width):
                obj[j] = obj[j] * p // den
    state.den = p
    state.basis[r] = c
    if state.den < 0:
        # Only reachable from artificial drive-out pivots on a zero row.
        for row in tab:
            for j in range(state.width):
                row[j] = -row[j]
        for obj in (state.obj1, state.obj2):
            for j in range(state.width):
                obj[j] = -obj[j]
        state.den = -state.den


def _optimize(state: _State, phase: int, barred: frozenset[int]) -> str:
    obj = state.obj1 if phase == 1 else state.obj2
    tab = state.tableau
    rule = "dantzig"
    stall = 0
    for _ in range(_PIVOT_CAP):
        ncols = state.width - 1
        enter = -1
        if rule == "dantzig":
            best = 0
            for j in range(ncols):
                if j in barred:
                    continue
                v = obj[j]
                if v < best:
                    best = v
                    enter = j
        else:
            for j in range(ncols):
                if j not in barred and obj[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return "optimal"
        leave = -1
        lnum = lden = None  # ratio lnum/lden of current best
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                num = row[-1]
                if leave < 0 or num * lden < lnum * a or (
                    num * lden == lnum * a and state.basis[i] < state.basis[leave]
                ):
                    leave, lnum, lden = i, num, a
        if leave < 0:
            assert phase == 2, "phase one is bounded by construction"
            return "unbounded"
        degenerate = tab[leave][-1] == 0
        _pivot(state, leave, enter)
        if degenerate:
            stall += 1
            if stall >= _DEGENERATE_SWITCH:
                rule = "bland"
        else:
            stall = 0
            rule = "dantzig"
    raise AssertionError("pivot cap exceeded; termination logic broken")


def _drive_out_artificials(state: _State, art_cols: set[int]) -> None:
    """Replace basic artificials (all at value zero here) or drop their rows."""
    i = 0
    while i < len(state.tableau):
        if state.basis[i] in art_cols:
            row = state.tableau[i]
            target = -1
            for j in range(state.width - 1):
                if j not in art_cols and row[j]:
                    target = j
                    break
            if target < 0:
                # Redundant constraint: zero over all structural columns.
                del state.tableau[i]
                del state.basis[i]
                continue
            assert row[-1] == 0, "feasible phase one left a positive artificial"
            _pivot(state, i, target)
        i += 1


def _drop_columns(state: _State, cols: set[int]) -> None:
    keep = [j for j in range(state.width - 1) if j not in cols] + [state.width - 1]
    remap = {old: new for new, old in enumerate(keep)}
    state.tableau = [[row[j] for j in keep] for row in state.tableau]
    state.obj1 = [state.obj1[j] for j in keep]
    state.obj2 = [state.obj2[j] for j in keep]
    state.basis = [remap[b] for b in state.basis]
    state.width = len(keep)
