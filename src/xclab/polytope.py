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
import tempfile
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InputError
from .exactla import (
    ExactMatrix,
    IntegerRows,
    conic_combination,
    format_rational,
    lp_solve,
    lp_solve_all,
    matrix_to_json,
    rat,
    read_matrix,
    solve_unique,
)
from .record import factory, record


@record
class Polytope:
    ineq_coefs: ExactMatrix
    ineq_rhs: tuple[Fraction, ...]
    eq_coefs: ExactMatrix | None
    eq_rhs: tuple[Fraction, ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    row_labels: tuple[str, ...]
    eq_labels: tuple[str, ...]
    vertex_labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        """Ambient dimension."""
        return self.ineq_coefs.ncols

    @property
    def n_ineqs(self) -> int:
        return self.ineq_coefs.nrows

    @classmethod
    def build(
        cls,
        ineq_coefs,
        ineq_rhs,
        vertices,
        *,
        eq_coefs=None,
        eq_rhs=(),
        row_labels: Sequence[str] | None = None,
        eq_labels: Sequence[str] | None = None,
        vertex_labels: Sequence[str] | None = None,
    ) -> "Polytope":
        """Validating constructor.  Rejects systems any vertex violates and
        zero-dimensional vertex sets (fewer than two distinct points)."""
        a = ineq_coefs if isinstance(ineq_coefs, ExactMatrix) else ExactMatrix(ineq_coefs)
        b = tuple(rat(x) for x in ineq_rhs)
        if len(b) != a.nrows:
            raise InputError(f"{a.nrows} inequality rows but {len(b)} right-hand sides")
        if eq_coefs is None:
            e, f = None, ()
        else:
            e = eq_coefs if isinstance(eq_coefs, ExactMatrix) else ExactMatrix(eq_coefs)
            f = tuple(rat(x) for x in eq_rhs)
            if len(f) != e.nrows:
                raise InputError(f"{e.nrows} equality rows but {len(f)} right-hand sides")
            if e.ncols != a.ncols:
                raise InputError("equality and inequality systems disagree on dimension")
        verts = tuple(tuple(rat(x) for x in v) for v in vertices)
        if any(len(v) != a.ncols for v in verts):
            raise InputError("vertex dimension does not match the constraint system")
        if len(set(verts)) < 2:
            raise InputError("polytope must have dimension >= 1: need two distinct vertices")

        rl = tuple(row_labels) if row_labels is not None else tuple(
            f"row:{i}" for i in range(a.nrows)
        )
        el = tuple(eq_labels) if eq_labels is not None else tuple(
            f"eq:{i}" for i in range(e.nrows if e is not None else 0)
        )
        vl = tuple(vertex_labels) if vertex_labels is not None else tuple(
            f"vertex:{j}" for j in range(len(verts))
        )
        if len(rl) != a.nrows or len(vl) != len(verts):
            raise InputError("label count does not match row or vertex count")
        if e is not None and len(el) != e.nrows:
            raise InputError("equality label count mismatch")

        poly = cls(a, b, e, f, verts, rl, el, vl)
        bad = poly.first_violation(verts)
        if bad is not None:
            j, why = bad
            raise InputError(f"vertex {j} ({vl[j]}) violates the system: {why}")
        return poly

    def all_rows(self) -> tuple[tuple, tuple]:
        """(rows, rhs): the inequality rows, then the equality rows."""
        if self.eq_coefs is None:
            return self.ineq_coefs.rows(), self.ineq_rhs
        return self.ineq_coefs.rows() + self.eq_coefs.rows(), self.ineq_rhs + self.eq_rhs

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

    def lp_system(self) -> tuple[tuple, tuple | None]:
        """(ineqs, eqs) in the form lp_solve takes."""
        eqs = None if self.eq_coefs is None else (self.eq_coefs, self.eq_rhs)
        return (self.ineq_coefs, self.ineq_rhs), eqs

    def contains(self, point: Sequence) -> bool:
        p = [rat(x) for x in point]
        if len(p) != self.dim:
            raise InputError("point dimension mismatch")
        return self.first_violation([p]) is None


@record
class SlackMatrix:
    matrix: ExactMatrix
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self):
        if self.matrix.nrows != len(self.row_labels):
            raise InputError("slack matrix row label count mismatch")
        if self.matrix.ncols != len(self.col_labels):
            raise InputError("slack matrix column label count mismatch")
        if not self.matrix.is_nonnegative():
            raise InputError("slack matrix has a negative entry")

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    def to_text(self) -> str:
        body = self.matrix.to_text()
        return body + " ".join(self.row_labels) + "\n" + " ".join(self.col_labels) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SlackMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 3:
            raise InputError("slack matrix text needs matrix plus two label lines")
        matrix = ExactMatrix.from_text("\n".join(lines[:-2]))
        return cls(matrix, tuple(lines[-2].split()), tuple(lines[-1].split()))


def as_matrix(s: SlackMatrix | ExactMatrix) -> ExactMatrix:
    """The bare matrix of a labelled slack matrix; plain matrices pass."""
    return s.matrix if isinstance(s, SlackMatrix) else s


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


def slack_matrix(
    poly: Polytope, row_filter: Callable[[str], bool] | None = None
) -> SlackMatrix:
    """Slack of each (inequality row, vertex) pair, optionally restricted to
    rows whose label passes the filter."""
    idx = [
        i
        for i, lab in enumerate(poly.row_labels)
        if row_filter is None or row_filter(lab)
    ]
    if not idx:
        raise InputError("row filter keeps no rows")
    system = IntegerRows([poly.ineq_coefs.row(i) for i in idx], [poly.ineq_rhs[i] for i in idx])
    cols = [system.slacks(v) for v in poly.vertices]
    return SlackMatrix(
        ExactMatrix(zip(*cols)),
        tuple(poly.row_labels[i] for i in idx),
        poly.vertex_labels,
    )


def verify_vertices(poly: Polytope) -> tuple[bool, int | None]:
    """Check that no listed vertex is a convex combination of the others.

    A point listed twice fails at its first listing.  A point of P(H) at
    which the tight inequality rows plus the equalities have rank dim is a
    vertex of P(H), hence of conv(V), and passes by that rank certificate
    alone.  Every other point, such as one of a relaxation whose P(H) is
    larger than conv(V), gets a feasibility LP: nonnegative weights on the
    other vertices summing to one that reproduce the point.  Returns
    (True, None) or (False, first offending index).
    """
    verts = poly.vertices
    counts = Counter(verts)
    system = IntegerRows(*poly.all_rows())
    for j, v in enumerate(verts):
        if counts[v] > 1:
            return False, j
        if _rank_certifies_vertex(poly, system, v):
            continue
        others = [verts[i] + (Fraction(1),) for i in range(len(verts)) if i != j]
        target = v + (Fraction(1),)
        if conic_combination(ExactMatrix(others), target) is not None:
            return False, j
    return True, None


def _rank_certifies_vertex(poly: Polytope, system: IntegerRows, v) -> bool:
    """Whether v lies in P(H) and is the only solution of its tight rows
    plus the equalities, that is, they have rank dim.  `system` holds the
    rows of `poly.all_rows()`."""
    m = poly.n_ineqs
    slacks = system.scaled_slacks(v)
    if any(s < 0 for s in slacks[:m]) or any(slacks[m:]):
        return False
    tight = (i for i, s in enumerate(slacks) if s == 0)  # every equality is tight here
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

    moved = ExactMatrix([poly.ineq_coefs.row(i) for i in tight])
    moved_rhs = [poly.ineq_rhs[i] for i in tight]
    new_eq = (
        moved
        if poly.eq_coefs is None
        else poly.eq_coefs.vstack(moved)
    )
    new_eq_rhs = tuple(poly.eq_rhs) + tuple(moved_rhs)
    new_eq_labels = tuple(poly.eq_labels) + tuple(poly.row_labels[i] for i in tight)

    moved_rows = IntegerRows(moved.rows(), moved_rhs)
    vert_idx = [j for j, v in enumerate(poly.vertices) if not any(moved_rows.scaled_slacks(v))]
    if not vert_idx:
        raise InputError("face is empty: no vertex is tight on all chosen rows")
    kept = [poly.vertices[j] for j in vert_idx]
    if len(set(kept)) < 2:
        raise InputError("face is zero-dimensional")

    return Polytope.build(
        ExactMatrix([poly.ineq_coefs.row(i) for i in keep_rows]),
        [poly.ineq_rhs[i] for i in keep_rows],
        kept,
        eq_coefs=new_eq,
        eq_rhs=new_eq_rhs,
        row_labels=[poly.row_labels[i] for i in keep_rows],
        eq_labels=new_eq_labels,
        vertex_labels=[poly.vertex_labels[j] for j in vert_idx],
    )


@record
class XYSystem:
    """Constraint system over the joint variables (x, y), x columns first:
    `ineqs` holds the rows of B x + C y <= d and `eqs` the equalities, each
    a (rows, rhs) pair in the form lp_solve takes, or None for a side
    without rows."""

    x_dim: int
    y_dim: int
    ineqs: tuple | None
    eqs: tuple | None = None

    @property
    def n_ineqs(self) -> int:
        return 0 if self.ineqs is None else len(self.ineqs[1])

    def lift_system_for(self, x: Sequence[Fraction]) -> tuple[tuple | None, tuple | None]:
        """Constraints over y once x is pinned: (ineqs, eqs) for lp_solve."""
        xy = tuple(x) + (Fraction(0),) * self.y_dim
        out = []
        for side in (self.ineqs, self.eqs):
            if side is not None:
                rows, rhs = side
                side = ([row[self.x_dim :] for row in rows], IntegerRows(rows, rhs).slacks(xy))
            out.append(side)
        return out[0], out[1]


def unique_lift(ineqs: tuple | None, eqs: tuple | None) -> tuple[Fraction, ...] | str:
    """The only y satisfying a lift system from `lift_system_for`, found by
    linear algebra: when the equality rows have full column rank, their
    unique solution is checked against the inequality rows.  Returns the
    point, "infeasible" when no y satisfies the system, or "not unique"
    when the equalities leave y free and an LP has to decide."""
    if eqs is None:
        return "not unique"
    point = solve_unique(*eqs)
    if point == "inconsistent":
        return "infeasible"
    if isinstance(point, tuple) and ineqs is not None and any(
        s < 0 for s in IntegerRows(*ineqs).scaled_slacks(point)
    ):
        return "infeasible"
    return point


@record
class ProjectionReport:
    passed: bool
    reason: str | None = None
    detail: dict = factory(dict)


def lp_equal_under_projection(
    poly: Polytope, system: XYSystem, trials: int, seed: int
) -> ProjectionReport:
    """Check that the x-projection of the system agrees with the polytope.

    Deterministic part: every vertex of the polytope lifts into the system
    (`unique_lift`, or a feasibility LP over y when the lift is not
    unique).  Randomized part: for `trials` seeded integer objectives on x,
    the exact maxima over both descriptions coincide; each description
    takes one `lp_solve_all` over all the objectives.
    """
    if system.x_dim != poly.dim:
        raise InputError("system x-dimension does not match the polytope")
    if trials < 0:
        raise InputError(f"trials must be >= 0, got {trials}")
    for j, v in enumerate(poly.vertices):
        ineqs, eqs = system.lift_system_for(v)
        lift = unique_lift(ineqs, eqs)
        if lift == "not unique":
            lift = lp_solve(ineqs, eqs, [0] * system.y_dim, sense="max").status
        if isinstance(lift, str) and lift != "optimal":
            return ProjectionReport(
                False,
                "vertex-lift",
                {"vertex": j, "label": poly.vertex_labels[j], "status": lift},
            )

    rng = random.Random(seed)
    objectives = [[rng.randint(-1000, 1000) for _ in range(poly.dim)] for _ in range(trials)]
    zeros_y = [0] * system.y_dim
    p_results = lp_solve_all(*poly.lp_system(), objectives, sense="max")
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
    return ProjectionReport(True)


# ---------------------------------------------------------------------------
# Serialization

def system_to_json(m: ExactMatrix, rhs: Sequence[Fraction]) -> dict:
    """One side of a constraint system as {"rows", "rhs"} JSON."""
    return {"rows": matrix_to_json(m.rows()), "rhs": [format_rational(x) for x in rhs]}


def polytope_to_json(poly: Polytope) -> dict:
    eqs = None if poly.eq_coefs is None else system_to_json(poly.eq_coefs, poly.eq_rhs)
    return {
        "dim": poly.dim,
        "ineqs": system_to_json(poly.ineq_coefs, poly.ineq_rhs),
        "eqs": eqs,
        "vertices": matrix_to_json(poly.vertices),
        "row_labels": list(poly.row_labels),
        "eq_labels": list(poly.eq_labels),
        "vertex_labels": list(poly.vertex_labels),
    }


def _file_matrix(path: str, base_dir: str | None) -> ExactMatrix:
    """A matrix-text file named by a `{"file": ...}` reference; relative
    paths resolve against the referring document's directory."""
    return read_matrix(os.path.join(base_dir or "", path))


def _system_from_json(obj: dict | None, base_dir: str | None, what: str):
    if obj is None:
        return None, ()
    if "file" in obj:
        aug = _file_matrix(obj["file"], base_dir).rows()
        return ExactMatrix(row[:-1] for row in aug), tuple(row[-1] for row in aug)
    try:
        rows = obj["rows"]
        rhs = obj["rhs"]
    except KeyError as exc:
        raise InputError(f"{what}: need 'rows'+'rhs' or 'file'") from exc
    return ExactMatrix(rows), tuple(rat(x) for x in rhs)


def _list_of(value, item_type: type) -> bool:
    return isinstance(value, list) and all(isinstance(x, item_type) for x in value)


def polytope_from_json(obj: dict, base_dir: str | None = None) -> Polytope:
    try:
        ineq_m, ineq_rhs = _system_from_json(obj["ineqs"], base_dir, "ineqs")
        eq_m, eq_rhs = _system_from_json(obj.get("eqs"), base_dir, "eqs")
        vertices = obj["vertices"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed polytope JSON: {exc}") from exc
    if isinstance(vertices, dict):
        # File reference: a bare matrix whose rows are the vertices.
        path = vertices.get("file")
        if path is None:
            raise InputError("vertices: need inline rows or a 'file' reference")
        vertices = _file_matrix(path, base_dir).rows()
    elif not _list_of(vertices, list):
        raise InputError("vertices: need a list of coordinate rows or a 'file' reference")
    labels = {key: obj.get(key) for key in ("row_labels", "eq_labels", "vertex_labels")}
    for key, value in labels.items():
        if value is not None and not _list_of(value, str):
            raise InputError(f"{key}: need a list of strings")
    poly = Polytope.build(
        ineq_m, ineq_rhs, vertices, eq_coefs=eq_m, eq_rhs=eq_rhs, **labels
    )
    if "dim" in obj and obj["dim"] != poly.dim:
        raise InputError(f"declared dim {obj['dim']} but system has {poly.dim}")
    return poly


def write_atomic(path: str, text: str) -> None:
    """Write through a temp file unique to this writer in the target's
    directory, then rename it into place.  On any failure the temp file is
    removed and the error re-raised, so a failed write leaves nothing.  The
    file gets the mode a plain open() would give it."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
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
    int-to-str digit limit, or text that is not UTF-8 is an InputError
    naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc})") from exc
        except ValueError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from exc


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
    obj = load_payload(path, "polytope")
    return polytope_from_json(obj, base_dir=os.path.dirname(os.path.abspath(path)))


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
