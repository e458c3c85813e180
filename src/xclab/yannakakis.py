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

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, NotAnExtensionError, NotDerivableError
from .exactla import (
    ExactMatrix,
    IntegerRows,
    conic_combination,
    lp_solve,
    rat,
)
from .polytope import (
    Polytope,
    SlackMatrix,
    XYSystem,
    as_matrix,
    slack_matrix,
    system_to_json,
    unique_lift,
)


@dataclass(frozen=True)
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
        if self.left.ncols < 1:
            raise InputError("inner dimension must be >= 1")
        if not self.left.is_nonnegative() or not self.right.is_nonnegative():
            raise InputError("factors must be entrywise nonnegative")

    @property
    def r(self) -> int:
        """Inner dimension."""
        return self.left.ncols

    def product(self) -> ExactMatrix:
        return self.left @ self.right


def verify_factorization(s: SlackMatrix | ExactMatrix, fac: Factorization) -> bool:
    """Exact entrywise check that the factors reproduce the matrix."""
    m = as_matrix(s)
    if fac.left.nrows != m.nrows or fac.right.ncols != m.ncols:
        raise InputError(
            f"factorization shape ({fac.left.nrows}x{fac.right.ncols}) does not "
            f"match the matrix ({m.nrows}x{m.ncols})"
        )
    return fac.product() == m


def slack_variable_factorization(s: SlackMatrix | ExactMatrix) -> Factorization:
    """The trivial factorization (I, S): one y-variable per row of S."""
    m = as_matrix(s)
    return Factorization(ExactMatrix.identity(m.nrows), m)


@dataclass(frozen=True)
class ExtendedFormulation:
    """Q = {(x, y) : eq_rows (x, y) = eq_rhs, y >= 0}, x columns first.

    The y >= 0 rows are the only inequalities, so the facet count is y_dim;
    equalities contribute none."""

    x_dim: int
    y_dim: int
    eq_rows: ExactMatrix
    eq_rhs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.x_dim < 1:
            raise InputError("an extension needs at least one x variable")
        if self.y_dim < 1:
            raise InputError("an extension needs at least one lift variable")
        if self.eq_rows.ncols != self.x_dim + self.y_dim:
            raise InputError(
                f"equality row widths disagree with the dimensions: "
                f"{self.eq_rows.ncols} columns, expected {self.x_dim + self.y_dim}"
            )
        if len(self.eq_rhs) != self.eq_rows.nrows:
            raise InputError(
                f"{self.eq_rows.nrows} equality rows but {len(self.eq_rhs)} right-hand sides"
            )

    @property
    def n_facets(self) -> int:
        return self.y_dim

    def to_xy_system(self) -> XYSystem:
        """The formulation with its y >= 0 rows as the inequality side."""
        zeros_x = (Fraction(0),) * self.x_dim
        nonneg_y = [zeros_x + row for row in ExactMatrix.identity(self.y_dim).scaled(-1).rows()]
        return XYSystem(
            self.x_dim,
            self.y_dim,
            (nonneg_y, (Fraction(0),) * self.y_dim),
            (self.eq_rows.rows(), self.eq_rhs),
        )


def extension_from_factorization(poly: Polytope, fac: Factorization) -> ExtendedFormulation:
    """Wrap a verified factorization of the polytope's slack matrix into an
    extension with fac.r facets: the row of inequality i is (a_i | L_i),
    that of an equality (e | 0).  Vertex j lifts to y = column j of the
    right factor."""
    if fac.left.nrows != poly.n_ineqs:
        raise InputError(
            f"factorization has {fac.left.nrows} rows but the polytope has "
            f"{poly.n_ineqs} inequalities"
        )
    s = slack_matrix(poly)
    if not verify_factorization(s, fac):
        raise InputError("factorization does not reproduce the slack matrix")
    rows, rhs = poly.all_rows()
    left = fac.left.rows() + ((Fraction(0),) * fac.r,) * (len(rows) - poly.n_ineqs)
    return ExtendedFormulation(
        poly.dim, fac.r, ExactMatrix(a + y for a, y in zip(rows, left)), rhs
    )


def _lex_min_lift(system: XYSystem, x, vertex_index: int):
    """Deterministic lift of a pinned x: the lexicographically least y.

    When the equality rows' y-block has rank y_dim, as in every
    ExtendedFormulation from `extension_from_factorization`, the lift is
    unique and `unique_lift` solves for it directly.  Otherwise LPs
    minimize the y coordinates one at a time, lowest index first, pinning
    each minimum before the next.
    """
    ineqs, eqs = system.lift_system_for(x)
    if system.y_dim == 0:
        ok = (ineqs is None or all(b >= 0 for b in ineqs[1])) and (
            eqs is None or all(f == 0 for f in eqs[1])
        )
        if not ok:
            raise NotAnExtensionError(vertex_index)
        return ()
    lift = unique_lift(ineqs, eqs)
    if lift == "infeasible":
        raise NotAnExtensionError(vertex_index)
    if lift != "not unique":
        return lift
    eq_rows = [] if eqs is None else list(eqs[0])
    eq_rhs = [] if eqs is None else list(eqs[1])
    point = None
    for i in range(system.y_dim):
        obj = [0] * system.y_dim
        obj[i] = 1
        res = lp_solve(ineqs, (eq_rows, eq_rhs) if eq_rows else None, obj, sense="min")
        if res.status == "infeasible":
            raise NotAnExtensionError(vertex_index)
        if res.status == "unbounded":
            raise InputError(
                f"lift coordinate {i} of vertex {vertex_index} is unbounded "
                "below; the lexicographic lift is undefined"
            )
        pin = [Fraction(0)] * system.y_dim
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

    ineq_rows = IntegerRows(*system.ineqs)
    cols = []
    for j, x in enumerate(poly.vertices):
        col = ineq_rows.slacks(tuple(x) + tuple(_lex_min_lift(system, x, j)))
        if any(c < 0 for c in col):
            raise NotAnExtensionError(j, f"lift of vertex {j} violates the system")
        cols.append(col)
    right = ExactMatrix(cols).transpose()

    eq_rows = [] if system.eqs is None else [[*row, f] for row, f in zip(*system.eqs)]
    big = ExactMatrix([[*row, d] for row, d in zip(*system.ineqs)] + eq_rows)

    zeros_y = (Fraction(0),) * system.y_dim
    left_rows = []
    for i in range(poly.n_ineqs):
        target = tuple(poly.ineq_coefs.row(i)) + zeros_y + (poly.ineq_rhs[i],)
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

def formulation_to_json(ef: ExtendedFormulation) -> dict:
    return {
        "x_dim": ef.x_dim,
        "y_dim": ef.y_dim,
        "variables": [f"x:{i}" for i in range(ef.x_dim)]
        + [f"y:{i}" for i in range(ef.y_dim)],
        "eqs": system_to_json(ef.eq_rows, ef.eq_rhs),
    }


def formulation_from_json(obj: dict) -> ExtendedFormulation:
    try:
        x_dim, y_dim = obj["x_dim"], obj["y_dim"]
        rows = ExactMatrix(obj["eqs"]["rows"])
        rhs = tuple(rat(v) for v in obj["eqs"]["rhs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed extension JSON: {exc}") from exc
    for key, value in (("x_dim", x_dim), ("y_dim", y_dim)):
        if type(value) is not int:
            raise InputError(f"malformed extension JSON: {key} must be an integer, got {value!r}")
    return ExtendedFormulation(x_dim, y_dim, rows, rhs)
