"""Exact rational matrices.

Scalars are fractions.Fraction throughout: the stdlib type already keeps
numerator and denominator coprime with a positive denominator, which is
exactly the canonical form we need.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from ..errors import InputError

def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, `p/q` string, or Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational token {value!r}") from exc
    raise InputError(f"not a rational scalar: {value!r}")


def format_rational(q: Fraction) -> str:
    """`p` for integers, `p/q` otherwise.  Inverse of rat() for strings."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def matrix_to_json(rows: Iterable[Iterable[Fraction]]) -> list[list[str]]:
    """Rows of rationals as nested lists of format_rational strings; the
    ExactMatrix constructor is the inverse."""
    return [[format_rational(x) for x in row] for row in rows]


def common_denominator(values: Iterable[Fraction]) -> int:
    """Least positive integer whose product with every value is integral."""
    return lcm(*(x.denominator for x in values))


class IntegerRows:
    """A row system a_i . x against b_i, each row and its right-hand side
    times their common denominator scales[i]: rows[i] holds the nonzero
    integer coefficients by column, rhs[i] the integer right-hand side.

    The slacks b_i - a_i . x of a rational point come out exact: the point
    is scaled by the common denominator of its coordinates, and only its
    support is read.
    """

    __slots__ = ("rows", "rhs", "scales")

    def __init__(self, rows: Iterable[Sequence[Fraction]], rhs: Iterable[Fraction]):
        self.rows: list[dict[int, int]] = []
        self.rhs: list[int] = []
        self.scales: list[int] = []
        for row, b in zip(rows, rhs):
            scale = lcm(b.denominator, common_denominator(row))
            self.rows.append(
                {k: a.numerator * (scale // a.denominator) for k, a in enumerate(row) if a}
            )
            self.rhs.append(b.numerator * (scale // b.denominator))
            self.scales.append(scale)

    def _scaled(self, x: Sequence[Fraction]) -> tuple[list[int], int]:
        den = common_denominator(x)
        supp = [(k, v.numerator * (den // v.denominator)) for k, v in enumerate(x) if v]
        return [
            d * den - sum(row[k] * v for k, v in supp if k in row)
            for row, d in zip(self.rows, self.rhs)
        ], den

    def scaled_slacks(self, x: Sequence[Fraction]) -> list[int]:
        """Per row, (b_i - a_i . x) times scales[i] times the common
        denominator of x: integers with the exact sign and zero pattern of
        the slacks."""
        return self._scaled(x)[0]

    def slacks(self, x: Sequence[Fraction]) -> list[Fraction]:
        """Per row, the exact slack b_i - a_i . x."""
        values, den = self._scaled(x)
        return [Fraction(s, c * den) for s, c in zip(values, self.scales)]

    def rank(self, idx: Iterable[int], limit: int) -> int:
        """The rank of the rows idx (right-hand sides left out), counted no
        further than limit."""
        pivots: list[tuple[int, dict[int, int], int]] = []
        for i in idx:
            red, _ = _reduce(pivots, self.rows[i], 0)
            if red:
                pivots.append((min(red), red, 0))
                if len(pivots) == limit:
                    break
        return len(pivots)


class ExactMatrix:
    """Immutable dense matrix over Fraction, row-major."""

    __slots__ = ("_rows", "_nrows", "_ncols")

    def __init__(self, rows: Iterable[Sequence[int | str | Fraction]]):
        data = tuple(tuple(rat(x) for x in row) for row in rows)
        if not data:
            raise InputError("matrix needs at least one row")
        width = len(data[0])
        if width == 0:
            raise InputError("matrix needs at least one column")
        if any(len(row) != width for row in data):
            raise InputError("ragged rows: all matrix rows must have equal length")
        self._rows = data
        self._nrows = len(data)
        self._ncols = width

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        zero = Fraction(0)
        return cls([[zero] * ncols for _ in range(nrows)])

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        return self._nrows, self._ncols

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self._rows)

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(zip(*self._rows))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExactMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"ExactMatrix({self._nrows}x{self._ncols})"

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self._ncols != other._nrows:
            raise InputError(
                f"matmul shape mismatch: {self.shape} @ {other.shape}"
            )
        cols = other.transpose()._rows
        zero = Fraction(0)
        out = []
        for arow in self._rows:
            out.append(
                [
                    sum((a * b for a, b in zip(arow, bcol) if a and b), zero)
                    for bcol in cols
                ]
            )
        return ExactMatrix(out)

    def scaled(self, factor: int | str | Fraction) -> "ExactMatrix":
        f = rat(factor)
        return ExactMatrix([[f * x for x in row] for row in self._rows])

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self._nrows != other._nrows:
            raise InputError("hstack needs equal row counts")
        return ExactMatrix([a + b for a, b in zip(self._rows, other._rows)])

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self._ncols != other._ncols:
            raise InputError("vstack needs equal column counts")
        return ExactMatrix(self._rows + other._rows)

    def max_norm(self) -> Fraction:
        """Entrywise infinity norm: max |entry|."""
        return max(abs(x) for row in self._rows for x in row)

    def is_nonnegative(self) -> bool:
        return all(x.numerator >= 0 for row in self._rows for x in row)

    def to_text(self) -> str:
        lines = [f"{self._nrows} {self._ncols}"]
        for row in self._rows:
            lines.append(" ".join(format_rational(x) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExactMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InputError("empty matrix text")
        head = lines[0].split()
        if len(head) != 2:
            raise InputError(f"bad matrix header {lines[0]!r}, want 'rows cols'")
        try:
            nrows, ncols = int(head[0]), int(head[1])
        except ValueError as exc:
            raise InputError(f"bad matrix header {lines[0]!r}") from exc
        if len(lines) != nrows + 1:
            raise InputError(
                f"matrix text declares {nrows} rows but has {len(lines) - 1}"
            )
        rows = []
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != ncols:
                raise InputError(
                    f"matrix row has {len(toks)} entries, header says {ncols}"
                )
            rows.append([rat(t) for t in toks])
        return cls(rows)


def rank(m: ExactMatrix) -> int:
    """Exact rank via fraction-free (Bareiss) elimination over integers."""
    # Scaling a row by a positive factor preserves rank, so each row is
    # cleared of denominators on its own.
    a = []
    for row in m.rows():
        scale = common_denominator(row)
        a.append([int(x * scale) for x in row])
    nrows, ncols = len(a), len(a[0])
    r = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if a[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        piv = a[r][col]
        for i in range(r + 1, nrows):
            ai = a[i]
            ar = a[r]
            f = ai[col]
            if f:
                for j in range(col, ncols):
                    ai[j] = (ai[j] * piv - f * ar[j]) // prev
            else:
                for j in range(col, ncols):
                    ai[j] = (ai[j] * piv) // prev
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def solve_unique(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, ...] | str:
    """The unique x with rows . x == rhs, else "inconsistent" when no x
    solves the system or "not unique" when solutions form a line or more.

    Sparse fraction-free elimination: each row is cleared of denominators
    and reduced against the pivot rows taken so far, in the order taken, so
    pivot row k is zero in the pivot columns of rows 1..k-1.  Once every
    column has a pivot, the rows not yet read are only checked at the
    solution.  An empty system is "not unique".
    """
    ncols = len(rows[0]) if rows else None
    pivots: list[tuple[int, dict[int, int], int]] = []
    solution = _back_substitute(pivots) if ncols == 0 else None
    system = IntegerRows(rows, rhs)
    for row, d in zip(system.rows, system.rhs):
        if solution is not None:
            xs, den = solution
            if sum(v * xs[k] for k, v in row.items()) != d * den:
                return "inconsistent"
            continue
        red, d = _reduce(pivots, row, d)
        if red:
            pivots.append((min(red), red, d))
            if len(pivots) == ncols:
                solution = _back_substitute(pivots)
        elif d:
            return "inconsistent"
    if solution is None:
        return "not unique"
    xs, den = solution
    return tuple(Fraction(v, den) for v in xs)


def _reduce(
    pivots: list[tuple[int, dict[int, int], int]], row: dict[int, int], d: int
) -> tuple[dict[int, int], int]:
    """The integer row `row . x == d` reduced against the pivot rows, in the
    order taken, divided by its content after each step; `row` itself is
    left alone."""
    red = row
    for col, prow, pd in pivots:
        f = red.get(col)
        if not f:
            continue
        p = prow[col]
        if p != 1 or red is row:
            red = {k: v * p for k, v in red.items()}
        for k, v in prow.items():
            t = red.get(k, 0) - f * v
            if t:
                red[k] = t
            else:
                del red[k]
        d = d * p - f * pd
        g = gcd(d, *red.values())
        if g > 1:
            red = {k: v // g for k, v in red.items()}
            d //= g
    return red, d


def _back_substitute(pivots) -> tuple[list[int], int]:
    """Solve a full set of pivot rows from the last to the first; the
    solution comes back as integers over one common denominator."""
    x = [Fraction(0)] * len(pivots)
    for col, prow, pd in reversed(pivots):
        acc = Fraction(pd)
        for k, v in prow.items():
            if k != col:
                acc -= v * x[k]
        x[col] = acc / prow[col]
    den = common_denominator(x)
    return [v.numerator * (den // v.denominator) for v in x], den


def write_matrix(path: str, m: ExactMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(m.to_text())


def read_matrix(path: str) -> ExactMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc})") from exc
    return ExactMatrix.from_text(text)
