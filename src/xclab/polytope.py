"""Polytopes with paired H- and V-descriptions, and their slack matrices.

A Polytope carries an inequality system A x <= b, an optional equality
system E x = f, and an explicit vertex list.  Both descriptions are exact;
construction checks that every vertex satisfies the whole system.  The
slack matrix S[i][j] = b_i - A_i . x_j is the bridge to every nonnegative
rank question downstream.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InputError
from .exactla import (
    ExactMatrix,
    IntegerRows,
    PinnedSolve,
    conic_combination,
    format_rational,
    lp_solve,
    lp_solve_all,
    matrix_to_json,
    rat,
)
from .record import record


@record
class Polytope:
    """`ineqs` holds the rows of A x <= b and `eqs` those of E x = f, each a
    (rows, rhs) pair of Fraction tuples as in `XYSystem`; without
    equalities `eqs` is ((), ())."""

    ineqs: tuple
    eqs: tuple
    vertices: tuple[tuple[Fraction, ...], ...]
    row_labels: tuple[str, ...]
    eq_labels: tuple[str, ...]
    vertex_labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        """Ambient dimension."""
        return len(self.ineqs[0][0])

    @property
    def n_ineqs(self) -> int:
        return len(self.ineqs[1])

    @classmethod
    def build(
        cls,
        ineq_coefs,
        ineq_rhs,
        vertices,
        *,
        eq_coefs=(),
        eq_rhs=(),
        row_labels: Sequence[str] | None = None,
        eq_labels: Sequence[str] | None = None,
        vertex_labels: Sequence[str] | None = None,
    ) -> "Polytope":
        """Validating constructor.  Each side's coefficients are rows, checked
        as `ExactMatrix` checks its rows; `eq_coefs` without rows means no
        equalities.
        Rejects systems any vertex violates and zero-dimensional vertex sets
        (fewer than two distinct points)."""
        a, b = ExactMatrix(ineq_coefs).rows(), tuple(rat(x) for x in ineq_rhs)
        if len(b) != len(a):
            raise InputError(f"{len(a)} inequality rows but {len(b)} right-hand sides")
        e, f = ExactMatrix(eq_coefs).rows() if eq_coefs else (), tuple(rat(x) for x in eq_rhs)
        if len(f) != len(e):
            raise InputError(f"{len(e)} equality rows but {len(f)} right-hand sides")
        dim = len(a[0])
        if e and len(e[0]) != dim:
            raise InputError("equality and inequality systems disagree on dimension")
        verts = tuple(tuple(rat(x) for x in v) for v in vertices)
        if any(len(v) != dim for v in verts):
            raise InputError("vertex dimension does not match the constraint system")
        if len(set(verts)) < 2:
            raise InputError("polytope must have dimension >= 1: need two distinct vertices")

        rl = tuple(row_labels) if row_labels is not None else tuple(
            f"row:{i}" for i in range(len(a))
        )
        el = tuple(eq_labels) if eq_labels is not None else tuple(
            f"eq:{i}" for i in range(len(e))
        )
        vl = tuple(vertex_labels) if vertex_labels is not None else tuple(
            f"vertex:{j}" for j in range(len(verts))
        )
        if len(rl) != len(a) or len(vl) != len(verts):
            raise InputError("label count does not match row or vertex count")
        if len(el) != len(e):
            raise InputError("equality label count mismatch")

        poly = cls((a, b), (e, f), verts, rl, el, vl)
        bad = poly.first_violation(verts)
        if bad is not None:
            j, why = bad
            raise InputError(f"vertex {j} ({vl[j]}) violates the system: {why}")
        return poly

    def all_rows(self) -> tuple[tuple, tuple]:
        """(rows, rhs): the inequality rows, then the equality rows."""
        return self.ineqs[0] + self.eqs[0], self.ineqs[1] + self.eqs[1]

    def first_violation(self, points) -> tuple[int, str] | None:
        """The index of the first point outside the system, with the first
        row it violates, inequalities before equalities; None when every
        point satisfies the system."""
        system, m = IntegerRows(*self.all_rows()), self.n_ineqs
        for j, v in enumerate(points):
            for i, s in enumerate(system.scaled_slacks(v)):
                if i < m and s < 0:
                    return j, f"inequality {i} ({self.row_labels[i]})"
                if i >= m and s:
                    return j, f"equality {i - m} ({self.eq_labels[i - m]})"
        return None

    def contains(self, point: Sequence) -> bool:
        p = [rat(x) for x in point]
        if len(p) != self.dim:
            raise InputError("point dimension mismatch")
        return self.first_violation([p]) is None


@record
class Rectangle:
    """An index rectangle: a set of rows times a set of columns."""

    rows: frozenset[int]
    cols: frozenset[int]

    @classmethod
    def of(cls, rows: Iterable[int], cols: Iterable[int]) -> "Rectangle":
        return cls(frozenset(rows), frozenset(cols))

    @property
    def n_cells(self) -> int:
        return len(self.rows) * len(self.cols)

    def cells(self):
        for i in sorted(self.rows):
            for j in sorted(self.cols):
                yield i, j


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def slack_matrix(
    poly: Polytope, row_filter: Callable[[str], bool] | None = None
) -> ExactMatrix:
    """Slack of each (inequality row, vertex) pair, optionally restricted to
    rows whose label passes the filter; None keeps every row.  Row i of the
    result is the i-th kept row, column j is vertex j."""
    idx = [
        i
        for i, lab in enumerate(poly.row_labels)
        if row_filter is None or row_filter(lab)
    ]
    if not idx:
        raise InputError("row filter keeps no rows")
    rows, rhs = poly.ineqs
    system = IntegerRows([rows[i] for i in idx], [rhs[i] for i in idx])
    return ExactMatrix(zip(*(system.slacks(v) for v in poly.vertices)))


def verify_vertices(poly: Polytope) -> tuple[bool, int | None]:
    """Check that no listed vertex is a convex combination of the others.

    A point listed twice fails at its first listing.  A point whose every
    coordinate is that coordinate's least or greatest value over V is a
    corner of V's bounding box: any convex combination of other points
    that gives it would use points equal to it in every coordinate, so it
    passes with no elimination (every 0/1 vertex set passes this way).
    Every listed point lies in P(H), as `Polytope.build` checked; one at
    which the tight inequality rows plus the equalities have rank dim is a
    vertex of P(H), hence of conv(V), and passes by that rank certificate.
    Every other point, such as one of a relaxation whose P(H) is larger
    than conv(V), gets a feasibility LP: nonnegative weights on the other
    vertices summing to one that reproduce the point.  Returns (True, None)
    or (False, first offending index).
    """
    verts = poly.vertices
    counts = Counter(verts)
    extremes = [{min(coord), max(coord)} for coord in zip(*verts)]
    system = None
    for j, v in enumerate(verts):
        if counts[v] > 1:
            return False, j
        if all(x in ends for x, ends in zip(v, extremes)):
            continue
        if system is None:
            system = IntegerRows(*poly.all_rows())
        if _rank_certifies_vertex(poly, system, v):
            continue
        others = [verts[i] + (Fraction(1),) for i in range(len(verts)) if i != j]
        target = v + (Fraction(1),)
        if conic_combination(ExactMatrix(others), target) is not None:
            return False, j
    return True, None


def _rank_certifies_vertex(poly: Polytope, system: IntegerRows, v) -> bool:
    """Whether v, a point of P(H), is the only solution of its tight rows
    plus the equalities, that is, they have rank dim.  `system` holds the
    rows of `poly.all_rows()`."""
    slacks = system.scaled_slacks(v)
    tight = (i for i, s in enumerate(slacks) if s == 0)  # every equality is tight at v
    return system.rank(tight, poly.dim) == poly.dim


def face(poly: Polytope, tight_rows: Sequence[int]) -> Polytope:
    """Turn the given inequality rows into equalities and keep the vertices
    where they are tight.  Errors if the result is empty or a single point."""
    tight = sorted(set(tight_rows))
    for i in tight:
        if not 0 <= i < poly.n_ineqs:
            raise InputError(f"tight row index {i} out of range")
    if not tight:
        raise InputError("no rows to tighten")
    tightset = set(tight)
    keep_rows = [i for i in range(poly.n_ineqs) if i not in tightset]
    if not keep_rows:
        raise InputError("tightening every inequality leaves no inequality system")

    rows, rhs = poly.ineqs
    moved_rows, moved_rhs = tuple(rows[i] for i in tight), tuple(rhs[i] for i in tight)
    moved = IntegerRows(moved_rows, moved_rhs)
    vert_idx = [j for j, v in enumerate(poly.vertices) if not any(moved.scaled_slacks(v))]
    if not vert_idx:
        raise InputError("face is empty: no vertex is tight on all chosen rows")
    kept = [poly.vertices[j] for j in vert_idx]
    if len(set(kept)) < 2:
        raise InputError("face is zero-dimensional")

    return Polytope.build(
        [rows[i] for i in keep_rows],
        [rhs[i] for i in keep_rows],
        kept,
        eq_coefs=poly.eqs[0] + moved_rows,
        eq_rhs=poly.eqs[1] + moved_rhs,
        row_labels=[poly.row_labels[i] for i in keep_rows],
        eq_labels=poly.eq_labels + tuple(poly.row_labels[i] for i in tight),
        vertex_labels=[poly.vertex_labels[j] for j in vert_idx],
    )


@record
class XYSystem:
    """Constraint system over the joint variables (x, y), x columns first:
    `ineqs` holds the rows of B x + C y <= d and `eqs` the equalities, each
    a (rows, rhs) pair in the form lp_solve takes; a side without rows is
    ((), ())."""

    x_dim: int
    y_dim: int
    ineqs: tuple
    eqs: tuple = ((), ())

    @property
    def n_ineqs(self) -> int:
        return len(self.ineqs[1])


class LiftPlan:
    """The lifts of points x into an XYSystem, planned once per system: the
    joint inequality rows held as integers, the equalities eliminated over
    y with x pinned (`PinnedSolve`), and both sides' y-blocks for the LPs.
    Whether a lift is unique does not depend on x."""

    __slots__ = ("system", "ineqs", "eqs", "y_blocks")

    def __init__(self, system: XYSystem):
        self.system = system
        self.ineqs = IntegerRows(*system.ineqs)
        self.eqs = PinnedSolve(*system.eqs, system.x_dim, system.y_dim)
        self.y_blocks = [
            [row[system.x_dim :] for row in rows] for rows, _ in (system.ineqs, system.eqs)
        ]

    def lift(self, x: Sequence[Fraction]) -> tuple[Fraction, ...] | str:
        """The only y with (x, y) in the system, found by linear algebra:
        when the equality rows' y-block has full column rank, their unique
        solution is checked against the inequality rows.  Returns the point,
        "infeasible" when no y satisfies the system, or "not unique" when
        the equalities leave y free and an LP has to decide."""
        y = self.eqs.solve(x)
        if y == "inconsistent" or (
            isinstance(y, tuple) and any(s < 0 for s in self.ineqs.scaled_slacks(tuple(x) + y))
        ):
            return "infeasible"
        return y

    def lp_system(self, x: Sequence[Fraction]) -> tuple[tuple, tuple]:
        """The system over y once x is pinned: (ineqs, eqs) for lp_solve,
        which decides the lifts `lift` leaves open.  Each side is its rows'
        y-block with their exact slacks at (x, 0); the equality rows come as
        a fresh list, so a caller may append to them."""
        ineq_y, eq_y = self.y_blocks
        return (ineq_y, self.ineqs.slacks(x)), (list(eq_y), self.eqs.system.slacks(x))


@record
class ProjectionReport:
    passed: bool
    reason: str | None
    detail: dict


def lp_equal_under_projection(
    poly: Polytope, system: XYSystem, trials: int, seed: int
) -> ProjectionReport:
    """Check that the x-projection of the system agrees with the polytope.

    Deterministic part: every vertex of the polytope lifts into the system,
    by one `LiftPlan` for all of them, or by a feasibility LP over y when
    the lift is not unique.  Randomized part: for `trials` seeded integer
    objectives on x, the exact maxima over both descriptions coincide; each
    description takes one `lp_solve_all` over all the objectives.
    """
    if system.x_dim != poly.dim:
        raise InputError("system x-dimension does not match the polytope")
    if trials < 0:
        raise InputError(f"trials must be >= 0, got {trials}")
    plan = LiftPlan(system)
    for j, v in enumerate(poly.vertices):
        lift = plan.lift(v)
        if lift == "not unique":
            lift = lp_solve(*plan.lp_system(v), [0] * system.y_dim, sense="max").status
        if isinstance(lift, str) and lift != "optimal":
            return ProjectionReport(
                False,
                "vertex-lift",
                {"vertex": j, "label": poly.vertex_labels[j], "status": lift},
            )

    rng = random.Random(seed)
    objectives = [[rng.randint(-1000, 1000) for _ in range(poly.dim)] for _ in range(trials)]
    zeros_y = [0] * system.y_dim
    p_results = lp_solve_all(poly.ineqs, poly.eqs, objectives, sense="max")
    q_results = lp_solve_all(
        system.ineqs, system.eqs, [c + zeros_y for c in objectives], sense="max"
    )
    for t, (c, over_p, over_q) in enumerate(zip(objectives, p_results, q_results)):
        if over_p.status != "optimal" or over_q.status != "optimal":
            return ProjectionReport(
                False,
                "objective-status",
                {"trial": t, "objective": c, "p": over_p.status, "q": over_q.status},
            )
        if over_p.value != over_q.value:
            return ProjectionReport(
                False,
                "objective-value",
                {
                    "trial": t,
                    "objective": c,
                    "p": format_rational(over_p.value),
                    "q": format_rational(over_q.value),
                },
            )
    return ProjectionReport(True, None, {})


# ---------------------------------------------------------------------------
# Serialization

def system_to_json(rows: Iterable[Iterable[Fraction]], rhs: Sequence[Fraction]) -> dict:
    """One side of a constraint system as {"rows", "rhs"} JSON."""
    return {"rows": matrix_to_json(rows), "rhs": [format_rational(x) for x in rhs]}


def polytope_to_json(poly: Polytope) -> dict:
    return {
        "dim": poly.dim,
        "ineqs": system_to_json(*poly.ineqs),
        "eqs": system_to_json(*poly.eqs) if poly.eqs[0] else None,
        "vertices": matrix_to_json(poly.vertices),
        "row_labels": list(poly.row_labels),
        "eq_labels": list(poly.eq_labels),
        "vertex_labels": list(poly.vertex_labels),
    }


def _system_from_json(obj: dict, what: str) -> tuple:
    """One side's (rows, rhs) for `Polytope.build`, from {"rows", "rhs"}."""
    try:
        rows = obj["rows"]
        rhs = obj["rhs"]
    except KeyError as exc:
        raise InputError(f"{what}: need 'rows' and 'rhs'") from exc
    for key, value in (("rhs", rhs), ("rows", rows)):
        if not isinstance(value, list):
            raise InputError(f"{what}: {key!r} must be a list, got {value!r}")
    return rows, rhs


def _list_of(value, item_type: type) -> bool:
    return isinstance(value, list) and all(isinstance(x, item_type) for x in value)


def polytope_from_json(obj: dict) -> Polytope:
    try:
        ineqs = _system_from_json(obj["ineqs"], "ineqs")
        eqs_json = obj.get("eqs")  # null or absent: no equalities
        eqs = ((), ()) if eqs_json is None else _system_from_json(eqs_json, "eqs")
        vertices = obj["vertices"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed polytope JSON: {exc}") from exc
    if not _list_of(vertices, list):
        raise InputError("vertices: need a list of coordinate rows")
    labels = {key: obj.get(key) for key in ("row_labels", "eq_labels", "vertex_labels")}
    for key, value in labels.items():
        if value is not None and not _list_of(value, str):
            raise InputError(f"{key}: need a list of strings")
    poly = Polytope.build(*ineqs, vertices, eq_coefs=eqs[0], eq_rhs=eqs[1], **labels)
    if "dim" in obj and obj["dim"] != poly.dim:
        raise InputError(f"declared dim {obj['dim']} but system has {poly.dim}")
    return poly


def write_atomic(path: str, text: str) -> None:
    """Write through a temp file next to the target, named with this
    process's id and a random suffix so that it is unique to this writer,
    then rename it into place.  On any failure the temp file is removed and
    the error re-raised, so a failed write leaves nothing.  The file is
    created with mode 0o666 less the umask, as a plain open() would."""
    tmp = f"{path}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_polytope(path: str, poly: Polytope) -> None:
    write_atomic(path, json.dumps(polytope_to_json(poly), indent=1) + "\n")


def load_json(path: str):
    """Parse a JSON file; malformed JSON, an integer over CPython's
    int-to-str digit limit, nesting deeper than the parser's recursion
    limit, or text that is not UTF-8 is an InputError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc})") from exc
        except ValueError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise InputError(f"{path}: JSON nested too deeply to parse") from exc


def load_payload(path: str, key: str):
    """Load a JSON payload, accepting either the bare object or a CLI
    envelope whose result carries it under `key`.  Any other shape comes
    back unchanged for the payload's own decoder to reject."""
    obj = load_json(path)
    if isinstance(obj, dict) and isinstance(obj.get("result"), dict):
        obj = obj["result"]
    if isinstance(obj, dict) and isinstance(obj.get(key), dict):
        obj = obj[key]
    return obj


def read_polytope(path: str) -> Polytope:
    return polytope_from_json(load_payload(path, "polytope"))


# ---------------------------------------------------------------------------
# Small standard polytopes, used heavily by tests and bound sweeps.

def simplex_polytope(d: int) -> Polytope:
    """Standard d-simplex: x >= 0, sum x <= 1."""
    if d < 1:
        raise InputError("simplex dimension must be >= 1")
    rows = []
    labels = []
    for i in range(d):
        e = [0] * d
        e[i] = -1
        rows.append(e)
        labels.append(f"nonneg:{i}")
    rows.append([1] * d)
    labels.append("sum")
    rhs = [0] * d + [1]
    verts = [tuple(Fraction(0) for _ in range(d))]
    vlabels = ["origin"]
    for i in range(d):
        v = [Fraction(0)] * d
        v[i] = Fraction(1)
        verts.append(tuple(v))
        vlabels.append(f"unit:{i}")
    return Polytope.build(rows, rhs, verts, row_labels=labels, vertex_labels=vlabels)


def hypercube_polytope(d: int) -> Polytope:
    """Unit cube [0, 1]^d."""
    if d < 1:
        raise InputError("cube dimension must be >= 1")
    rows, rhs, labels = [], [], []
    for i in range(d):
        e = [0] * d
        e[i] = -1
        rows.append(list(e))
        rhs.append(0)
        labels.append(f"lower:{i}")
        e2 = [0] * d
        e2[i] = 1
        rows.append(e2)
        rhs.append(1)
        labels.append(f"upper:{i}")
    verts, vlabels = [], []
    for mask in range(1 << d):
        v = tuple(Fraction((mask >> i) & 1) for i in range(d))
        verts.append(v)
        vlabels.append("corner:" + "".join(str((mask >> i) & 1) for i in range(d)))
    return Polytope.build(rows, rhs, verts, row_labels=labels, vertex_labels=vlabels)


def cross_polytope(d: int) -> Polytope:
    """Convex hull of the signed unit vectors: sum |x_i| <= 1."""
    if d < 1:
        raise InputError("cross polytope dimension must be >= 1")
    rows, labels = [], []
    for mask in range(1 << d):
        signs = [1 if (mask >> i) & 1 else -1 for i in range(d)]
        rows.append(signs)
        labels.append("facet:" + "".join("+" if s > 0 else "-" for s in signs))
    rhs = [1] * len(rows)
    verts, vlabels = [], []
    for i in range(d):
        for s in (1, -1):
            v = [Fraction(0)] * d
            v[i] = Fraction(s)
            verts.append(tuple(v))
            vlabels.append(f"{'plus' if s > 0 else 'minus'}:{i}")
    return Polytope.build(rows, rhs, verts, row_labels=labels, vertex_labels=vlabels)
