"""Exact rational matrices, held as integer rows over per-row scales; a
Fraction is made only where a caller asks for an entry, a row or a column.
No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from ..errors import InputError

def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, `p/q` string, or Fraction to an exact rational; a
    string that `int` refuses, such as "1/2" or "1e3", reads as Fraction's."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            try:
                return Fraction(int(value))
            except ValueError:
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


def clear_denominators(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The values times their common denominator, and that denominator."""
    den = common_denominator(values)
    return tuple([x.numerator * (den // x.denominator) for x in values]), den


def scaled_support(point: Sequence[Fraction]) -> tuple[list[tuple[int, int]], int]:
    """The nonzero coordinates of the point times their common denominator
    den, as (index, integer) pairs, and den."""
    den = common_denominator(point)
    return [(k, x.numerator * (den // x.denominator)) for k, x in enumerate(point) if x], den


def _least_terms(pair: tuple[Sequence[int], int]) -> tuple[tuple[int, ...], int]:
    """Integers over a positive scale, divided by their common factor."""
    ints, scale = pair
    g = gcd(scale, *ints)
    return (tuple(ints) if g == 1 else tuple([a // g for a in ints])), scale // g


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
        self.system = ExactMatrix.system(rows, rhs)
        for row in self.system.ints:
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
    """Immutable dense rational matrix: row i is `ints[i]` over `scales[i]`,
    the lcm of that row's denominators, so equal matrices hold equal ints.

    A row system a_i . x against b_i is the matrix of the rows (a_i, b_i)
    (`system`).  Its slacks at a rational point come out exact in integers:
    the point is scaled by its common denominator, and only its support is
    read."""

    __slots__ = ("ints", "scales", "_cleared_columns")

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
        self._hold(map(clear_denominators, data))

    def _hold(self, pairs: Iterable[tuple[tuple[int, ...], int]]) -> None:
        """Keep (ints, scale) pairs already in least terms as the rows."""
        self.ints, self.scales = tuple(zip(*pairs)) or ((), ())
        self._cleared_columns = None

    @classmethod
    def system(cls, rows: Iterable[Sequence[Fraction]], rhs: Iterable[Fraction]) -> ExactMatrix:
        """The rows (a_i, b_i) of a system a_i . x against b_i, right-hand
        side last; without rows the matrix has none."""
        m = cls.__new__(cls)
        m._hold([clear_denominators((*row, b)) for row, b in zip(rows, rhs)])
        return m

    @classmethod
    def from_ints(cls, pairs: Iterable[tuple[Sequence[int], int]]) -> ExactMatrix:
        """The matrix whose row i is the integers over the positive scale of
        the i-th (ints, scale) pair, reduced to least terms."""
        m = cls.__new__(cls)
        m._hold(map(_least_terms, pairs))
        return m

    @classmethod
    def identity(cls, n: int) -> ExactMatrix:
        return cls.from_ints(([int(i == j) for j in range(n)], 1) for i in range(n))

    @property
    def nrows(self) -> int:
        return len(self.ints)

    @property
    def ncols(self) -> int:
        return len(self.ints[0]) if self.ints else 0

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.ints), self.ncols

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.ints[i][j], self.scales[i])

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple([Fraction(a, self.scales[i]) for a in self.ints[i]])

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple([Fraction(row[j], scale) for row, scale in zip(self.ints, self.scales)])

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(map(self.row, range(len(self.ints))))

    def cleared_columns(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each column in least terms, as its integers and their scale;
        computed on the first call and kept."""
        if self._cleared_columns is None:
            den = lcm(*self.scales)
            lifted = [[a * (den // s) for a in row] for row, s in zip(self.ints, self.scales)]
            self._cleared_columns = tuple([_least_terms((col, den)) for col in zip(*lifted)])
        return self._cleared_columns

    def transpose(self) -> ExactMatrix:
        return ExactMatrix.from_ints(self.cleared_columns())

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, ExactMatrix)
        return same and self.ints == other.ints and self.scales == other.scales

    def __hash__(self) -> int:
        return hash((self.ints, self.scales))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"

    def __matmul__(self, other: ExactMatrix) -> ExactMatrix:
        if self.ncols != other.nrows:
            raise InputError(
                f"matmul shape mismatch: {self.shape} @ {other.shape}"
            )
        cols = other.cleared_columns()
        den = lcm(*(scale for _, scale in cols))
        lifts = [(col, den // scale) for col, scale in cols]
        return ExactMatrix.from_ints(
            ([sum(a * b for a, b in zip(arow, col) if a) * k for col, k in lifts], scale * den)
            for arow, scale in zip(self.ints, self.scales)
        )

    def max_norm(self) -> Fraction:
        """Entrywise infinity norm: max |entry|."""
        return max(Fraction(max(map(abs, row)), s) for row, s in zip(self.ints, self.scales))

    def is_nonnegative(self) -> bool:
        return all(min(row) >= 0 for row in self.ints)

    def _scaled(self, x: Sequence[Fraction]) -> tuple[list[int], int]:
        supp, den = scaled_support(x)
        return [row[-1] * den - sum(row[k] * v for k, v in supp) for row in self.ints], den

    def scaled_slacks(self, x: Sequence[Fraction]) -> list[int]:
        """Per row of a system, (b_i - a_i . x) times scales[i] times the
        common denominator of x: integers with the exact sign and zero
        pattern of the slacks."""
        return self._scaled(x)[0]

    def slacks(self, x: Sequence[Fraction]) -> list[Fraction]:
        """Per row of a system, the exact slack b_i - a_i . x."""
        values, den = self._scaled(x)
        return [Fraction(s, c * den) for s, c in zip(values, self.scales)]

    def slack_matrix(self, points: Sequence[Sequence[Fraction]]) -> ExactMatrix:
        """The slacks of a system at the points, a column per point: each
        point's scaled slacks lifted to the points' common denominator den,
        so row i is integers over scales[i] * den, with no Fraction made."""
        scaled = [self._scaled(x) for x in points]
        den = lcm(*(d for _, d in scaled))
        cols = [col if d == den else [s * (den // d) for s in col] for col, d in scaled]
        return ExactMatrix.from_ints(zip(zip(*cols), (scale * den for scale in self.scales)))

    def rank_of_rows(self, idx: Iterable[int], limit: int) -> int:
        """The rank of the rows idx over every column, counted no further
        than limit.  On the rows of a system that are tight at a point x,
        b_i = a_i . x, so the right-hand-side column adds no rank."""
        pivots: list[tuple[int, dict[int, int], int]] = []
        for i in idx:
            red, _ = _reduce(pivots, {k: a for k, a in enumerate(self.ints[i]) if a}, 0)
            if red:
                pivots.append((min(red), red, 0))
                if len(pivots) == limit:
                    break
        return len(pivots)


def rank(m: ExactMatrix) -> int:
    """Exact rank: the sparse fraction-free elimination of
    `ExactMatrix.rank_of_rows` over every row."""
    return m.rank_of_rows(range(m.nrows), min(m.shape))


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

