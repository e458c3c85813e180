"""Exact bridge between nonnegative slack factorizations and extensions.

A nonnegative factorization S = L R of a polytope's slack matrix turns into
the constraint system Q = {(x, y) : A x + L y = b, E x = f, y >= 0}; column
j of R is a feasible witness for vertex j, and the y >= 0 rows are the only
inequalities, so Q has exactly r facets.  Conversely, any constraint system
over (x, y) projecting to the polytope yields a factorization: vertex lifts
give the right factor, conic derivations of the polytope's rows give the
left one, and the product reproduces S exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, NotAnExtensionError, NotDerivableError
from .exactla import ExactMatrix, conic_combination, lp_solve, rat
from .polytope import (
    LiftPlan,
    Polytope,
    XYSystem,
    slack_matrix,
    system_to_json,
)
from .record import record


@record
class Factorization:
    """S = left @ right with both factors entrywise nonnegative."""

    left: ExactMatrix
    right: ExactMatrix

    def __post_init__(self):
        if self.left.ncols != self.right.nrows:
            raise InputError(
                f"inner dimensions disagree: left is {self.left.nrows}x"
                f"{self.left.ncols}, right is {self.right.nrows}x{self.right.ncols}"
            )
        if not self.left.is_nonnegative() or not self.right.is_nonnegative():
            raise InputError("factors must be entrywise nonnegative")

    @property
    def r(self) -> int:
        """Inner dimension."""
        return self.left.ncols

    def product(self) -> ExactMatrix:
        return self.left @ self.right


def verify_factorization(m: ExactMatrix, fac: Factorization) -> bool:
    """Exact entrywise check that the factors reproduce the matrix."""
    if fac.left.nrows != m.nrows or fac.right.ncols != m.ncols:
        raise InputError(
            f"factorization shape ({fac.left.nrows}x{fac.right.ncols}) does not "
            f"match the matrix ({m.nrows}x{m.ncols})"
        )
    return fac.product() == m


def slack_variable_factorization(m: ExactMatrix) -> Factorization:
    """The trivial factorization (I, S): one y-variable per row of S."""
    return Factorization(ExactMatrix.identity(m.nrows), m)


def formulation(x_dim: int, y_dim: int, eq_rows, eq_rhs) -> XYSystem:
    """Q = {(x, y) : eq_rows (x, y) = eq_rhs, y >= 0}, x columns first: the
    y >= 0 rows are its inequality side, so it has y_dim facets, and the
    given rows, checked as `ExactMatrix` checks its rows, its equality side."""
    if x_dim < 1:
        raise InputError("an extension needs at least one x variable")
    if y_dim < 1:
        raise InputError("an extension needs at least one lift variable")
    rows, rhs = ExactMatrix(eq_rows).rows(), tuple(map(rat, eq_rhs))
    if len(rows[0]) != x_dim + y_dim:
        raise InputError(
            f"equality row widths disagree with the dimensions: "
            f"{len(rows[0])} columns, expected {x_dim + y_dim}"
        )
    if len(rhs) != len(rows):
        raise InputError(f"{len(rows)} equality rows but {len(rhs)} right-hand sides")
    zero = Fraction(0)
    nonneg_y = tuple(
        (zero,) * (x_dim + i) + (Fraction(-1),) + (zero,) * (y_dim - 1 - i) for i in range(y_dim)
    )
    return XYSystem(x_dim, y_dim, (nonneg_y, (zero,) * y_dim), (rows, rhs))


def extension_from_factorization(poly: Polytope, fac: Factorization) -> XYSystem:
    """Wrap a verified factorization of the polytope's slack matrix into an
    extension with fac.r facets: the row of inequality i is (a_i | L_i),
    that of an equality (e | 0).  Vertex j lifts to y = column j of the
    right factor."""
    if fac.left.nrows != poly.n_ineqs:
        raise InputError(
            f"factorization has {fac.left.nrows} rows but the polytope has "
            f"{poly.n_ineqs} inequalities"
        )
    if not verify_factorization(slack_matrix(poly), fac):
        raise InputError("factorization does not reproduce the slack matrix")
    rows, rhs = poly.all_rows()
    left = fac.left.rows() + ((Fraction(0),) * fac.r,) * (len(rows) - poly.n_ineqs)
    return formulation(poly.dim, fac.r, [a + y for a, y in zip(rows, left)], rhs)


def _lex_min_lift(plan: LiftPlan, x, vertex_index: int):
    """Deterministic lift of a pinned x: the lexicographically least y.

    When the equality rows' y-block has rank y_dim, as in every extension
    from `extension_from_factorization` and in every system without y, the
    lift is unique and the system's `LiftPlan` solves for it directly.
    Otherwise LPs minimize the y coordinates one at a time, lowest index
    first, pinning each minimum before the next.
    """
    lift = plan.lift(x)
    if lift == "infeasible":
        raise NotAnExtensionError(vertex_index)
    if lift != "not unique":
        return lift
    y_dim = plan.system.y_dim
    ineqs, (eq_rows, eq_rhs) = plan.lp_system(x)
    point = None
    for i in range(y_dim):
        obj = [0] * y_dim
        obj[i] = 1
        res = lp_solve(ineqs, (eq_rows, eq_rhs), obj, sense="min")
        if res.status == "infeasible":
            raise NotAnExtensionError(vertex_index)
        if res.status == "unbounded":
            raise InputError(
                f"lift coordinate {i} of vertex {vertex_index} is unbounded "
                "below; the lexicographic lift is undefined"
            )
        pin = [Fraction(0)] * y_dim
        pin[i] = Fraction(1)
        eq_rows.append(pin)
        eq_rhs.append(res.value)
        point = res.point
    return point


def factorization_from_extension(poly: Polytope, system: XYSystem) -> Factorization:
    """Recover a nonnegative factorization of the polytope's slack matrix
    from a constraint system over (x, y) whose x-projection is the polytope.

    The inner dimension equals the system's inequality count.  Per vertex,
    the right-factor column is the inequality slack at a deterministic lift;
    per polytope row, the left-factor row is a conic combination of the
    system rows reproducing (a_i | 0 | b_i), with a free multiplier per
    equality row, folded away.
    """
    if system.x_dim != poly.dim:
        raise InputError("system x-dimension does not match the polytope")
    r = system.n_ineqs
    if r == 0:
        raise InputError("system has no inequality rows to act as facets")

    plan = LiftPlan(system)
    cols = []
    for j, x in enumerate(poly.vertices):
        cols.append(plan.ineqs.slacks(tuple(x) + tuple(_lex_min_lift(plan, x, j))))
    right = ExactMatrix(cols).transpose()

    eq_rows = [[*row, f] for row, f in zip(*system.eqs)]
    big = ExactMatrix([[*row, d] for row, d in zip(*system.ineqs)] + eq_rows)

    zeros_y = (Fraction(0),) * system.y_dim
    left_rows = []
    for i, (row, b) in enumerate(zip(*poly.ineqs)):
        target = row + zeros_y + (b,)
        u = conic_combination(big, target, free=len(eq_rows))
        if u is None:
            raise NotDerivableError(i)
        left_rows.append(u[:r])
    fac = Factorization(ExactMatrix(left_rows), right)
    if not verify_factorization(slack_matrix(poly), fac):
        raise AssertionError("derived factorization does not reproduce the slack matrix")
    return fac


# ---------------------------------------------------------------------------
# Serialization: polytope-style JSON over the joint (x, y) variables.

def formulation_to_json(system: XYSystem) -> dict:
    """The extension's dimensions and its equality side; the y >= 0 rows
    are left out, and `formulation_from_json` adds them back, so a system
    that `formulation` does not rebuild from those is refused."""
    if formulation(system.x_dim, system.y_dim, *system.eqs) != system:
        raise InputError("only an extension whose inequality side is y >= 0 is written as JSON")
    return {
        "x_dim": system.x_dim,
        "y_dim": system.y_dim,
        "variables": [f"x:{i}" for i in range(system.x_dim)]
        + [f"y:{i}" for i in range(system.y_dim)],
        "eqs": system_to_json(*system.eqs),
    }


def formulation_from_json(obj: dict) -> XYSystem:
    try:
        x_dim, y_dim = obj["x_dim"], obj["y_dim"]
        rows, rhs = obj["eqs"]["rows"], obj["eqs"]["rhs"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed extension JSON: {exc}") from exc
    for key, value in (("eqs.rows", rows), ("eqs.rhs", rhs)):
        if not isinstance(value, list):
            raise InputError(f"malformed extension JSON: {key} must be a list, got {value!r}")
    for key, value in (("x_dim", x_dim), ("y_dim", y_dim)):
        if type(value) is not int:
            raise InputError(f"malformed extension JSON: {key} must be an integer, got {value!r}")
    return formulation(x_dim, y_dim, rows, rhs)
