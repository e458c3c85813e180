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


def clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times their common denominator, and that denominator."""
    den = common_denominator(values)
    return [x.numerator * (den // x.denominator) for x in values], den


def scaled_support(point: Sequence[Fraction]) -> tuple[list[tuple[int, int]], int]:
    """The nonzero coordinates of the point times their common denominator
    den, as (index, integer) pairs, and den."""
    den = common_denominator(point)
    return [(k, x.numerator * (den // x.denominator)) for k, x in enumerate(point) if x], den


class IntegerRows:
    """A row system a_i . x against b_i, cleared of denominators: rows[i]
    holds a_i and then b_i, all times their least common denominator
    scales[i], as one list of ints.  It is the form the simplex takes, and
    `cleared` wraps rows already in it at scale 1.

    The slacks b_i - a_i . x of a rational point come out exact: the point
    is scaled by the common denominator of its coordinates, and only its
    support is read.
    """

    __slots__ = ("rows", "scales")

    def __init__(self, rows: Iterable[Sequence[Fraction]], rhs: Iterable[Fraction]):
        pairs = [clear_denominators((*row, b)) for row, b in zip(rows, rhs)]
        self.rows = [ints for ints, _ in pairs]
        self.scales = [scale for _, scale in pairs]

    @classmethod
    def cleared(cls, rows: list[list[int]]) -> IntegerRows:
        """The integer rows, right-hand side last, each taken at scale 1."""
        system = cls.__new__(cls)
        system.rows, system.scales = rows, [1] * len(rows)
        return system

    def _scaled(self, x: Sequence[Fraction]) -> tuple[list[int], int]:
        supp, den = scaled_support(x)
        return [row[-1] * den - sum(row[k] * v for k, v in supp) for row in self.rows], den

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
            red, _ = _reduce(pivots, {k: a for k, a in enumerate(self.rows[i][:-1]) if a}, 0)
            if red:
                pivots.append((min(red), red, 0))
                if len(pivots) == limit:
                    break
        return len(pivots)


class PinnedSolve:
    """The system rows . (p, z) == rhs over `fixed` pinned columns p, first,
    and `free` unknown columns z, eliminated once for every p.

    The rows are cleared of denominators and reduced with the unknowns
    ahead of the pinned columns, so a row keeps an unknown as its leading
    column while it has one.  A row left with no unknown is a condition on
    p.  When every unknown has a pivot, each pivot row is reduced against
    the later ones until it holds its unknown alone, and solve(p) reads z
    off the pivot rows.  Whether z is unique does not depend on p.  The
    cleared rows stay in `system`.
    """

    __slots__ = ("free", "pivots", "conditions", "system")

    def __init__(
        self, rows: Iterable[Sequence[Fraction]], rhs: Iterable[Fraction], fixed: int, free: int
    ):
        self.free = free
        self.pivots: list[tuple[int, dict[int, int], int]] = []
        self.conditions: list[tuple[dict[int, int], int]] = []
        self.system = IntegerRows(rows, rhs)
        for row in self.system.rows:
            keyed = {k - fixed if k >= fixed else k + free: v for k, v in enumerate(row[:-1]) if v}
            red, d = _reduce(self.pivots, keyed, row[-1])
            lead = min(red, default=free)
            if lead < free:
                self.pivots.append((lead, red, d))
            elif red or d:
                self.conditions.append((red, d))
        if len(self.pivots) == free:
            for k in reversed(range(free)):
                col, row, d = self.pivots[k]
                self.pivots[k] = (col, *_reduce(self.pivots[k + 1 :], row, d))
            self.pivots.sort(key=lambda pivot: pivot[0])

    def solve(self, p: Sequence[Fraction]) -> tuple[Fraction, ...] | str:
        """The unique z with rows . (p, z) == rhs, else "inconsistent" when
        no z solves the system or "not unique" when solutions form a line or
        more; inconsistency is reported first."""
        supp, den = scaled_support(p)
        pinned = {self.free + k: v for k, v in supp}

        def rest(row: dict[int, int], d: int) -> int:
            return d * den - sum(v * pinned[k] for k, v in row.items() if k in pinned)

        if any(rest(row, d) for row, d in self.conditions):
            return "inconsistent"
        if len(self.pivots) < self.free:
            return "not unique"
        return tuple(Fraction(rest(row, d), row[col] * den) for col, row, d in self.pivots)


def _exact_row(row: Sequence[int | str | Fraction]) -> tuple[Fraction, ...]:
    """One matrix row as rationals; a row that is not a list or tuple is
    refused, and a string is not read one character per entry."""
    if isinstance(row, str):
        raise InputError(f"a matrix row is a list of entries, not the string {row!r}")
    if not isinstance(row, (list, tuple)):
        raise InputError(f"a matrix row is a list of entries, not {row!r}")
    return tuple(rat(x) for x in row)


class ExactMatrix:
    """Immutable dense matrix over Fraction, row-major."""

    __slots__ = ("_rows", "_nrows", "_ncols", "_cleared_columns")

    def __init__(self, rows: Iterable[Sequence[int | str | Fraction]]):
        if isinstance(rows, str):
            raise InputError(f"a matrix is a list of rows, not the string {rows!r}")
        data = tuple(map(_exact_row, rows))
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
        self._cleared_columns = None

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

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

    def cleared_columns(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """`clear_denominators` of each column, its entries as a tuple;
        computed on the first call and kept."""
        if self._cleared_columns is None:
            self._cleared_columns = tuple(
                (tuple(ints), den) for ints, den in map(clear_denominators, zip(*self._rows))
            )
        return self._cleared_columns

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

    def max_norm(self) -> Fraction:
        """Entrywise infinity norm: max |entry|."""
        return max(abs(x) for row in self._rows for x in row)

    def is_nonnegative(self) -> bool:
        return all(x.numerator >= 0 for row in self._rows for x in row)


def rank(m: ExactMatrix) -> int:
    """Exact rank: the rows cleared of denominators, then the sparse
    fraction-free elimination of `IntegerRows.rank`."""
    return IntegerRows(m.rows(), [Fraction(0)] * m.nrows).rank(range(m.nrows), min(m.shape))


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

