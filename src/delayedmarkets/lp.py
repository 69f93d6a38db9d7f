"""Exact linear programming over rationals, computed on integers.

Primal simplex with Bland's rule: no tolerances exist anywhere in this
module, so optimal solutions re-substitute exactly. Bland's
smallest-index rule trades speed for a termination guarantee, which is
the right trade at the problem sizes the arbitrage oracles produce.

Problems come in a form whose all-slack basis is always feasible:
maximize c . x subject to <= rows with right-hand sides >= 0, and
x >= 0 implicit. So the simplex has one phase, and an optimum comes with
its duals, one per row, read off the final cost row. A caller with a
free variable passes it as an adjacent (column, -column) pair and reads
back the difference.

Every row, the objective included, is sparse: a tuple of (column, value)
pairs, one per nonzero entry, in increasing column order. That is the
only row form; row_basis takes and returns it too. Every value,
right-hand side and objective entry is an int: the oracles' rows are
gain generator deltas in units of the market's price scale, and the
basis rows are primitive. LpProblem rejects anything else.

The tableau and the row basis are fraction-free (Edmonds 1967, Bareiss
1968): every row is held as Python ints, a positive multiple of the
rational row it stands for, divided by the gcd of its entries after each
update. A positive factor keeps each sign, each zero and each ratio
between two entries of a row, which is all that Bland's rule and the
ratio test read, so the pivots, and with them the solutions, are those
of the same simplex run on fractions. Rationals are built only on the
way out, for the solution, the objective value and the duals.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Sequence

from .frozen import Frozen
from .rationals import Rational, ZERO

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

Row = tuple[tuple[int, int], ...]  # (column, nonzero value), increasing column

# keys of a sparse tableau row besides its column indices
RHS = -1    # the right-hand side
DEN = -2    # the cost row's positive denominator; constraint rows have none


def _check_row(row: Row, rhs: int, n: int, what: str):
    """ValueError for a column out of order or range or a zero value,
    TypeError for a value or right-hand side that is not an int."""
    last = -1
    for k, v in row:
        if not last < k < n:
            raise ValueError(f"{what} column {k} is out of order or outside 0..{n - 1}")
        if type(v) is not int:
            raise TypeError(f"{what} value {v!r} in column {k} is not an int")
        if not v:
            raise ValueError(f"{what} value in column {k} is zero")
        last = k
    if type(rhs) is not int:
        raise TypeError(f"{what} right-hand side {rhs!r} is not an int")


class LpProblem(Frozen):
    """maximize objective . x subject to <= rows and x >= 0.

    The objective and each row's coefficients are sparse int rows (see
    Row); a row is a (coefficients, int right-hand side >= 0) pair.
    """

    _fields = ("num_vars", "objective", "inequalities")
    equalities = ()  # no equality rows; the benchmark's problem-size note reads this

    def __init__(self, num_vars: int, objective: Row, inequalities: tuple[tuple[Row, int], ...] = ()):
        if num_vars < 1:
            raise ValueError("a problem needs at least one variable")
        _check_row(objective, 0, num_vars, "objective")
        for i, (row, b) in enumerate(inequalities):
            _check_row(row, b, num_vars, "inequality")
            if b < 0:
                raise ValueError(f"inequality {i} has right-hand side {b}; it must be at least 0")
        self.__dict__.update(num_vars=num_vars, objective=objective, inequalities=inequalities)


class LpOutcome(Frozen):
    """An optimal outcome carries a point, its value and one dual per row."""

    _fields = ("status", "solution", "objective", "duals")

    def __init__(self, status: str, solution: tuple[Rational, ...] | None = None,
                 objective: Rational | None = None, duals: tuple[Rational, ...] | None = None):
        self.__dict__.update(status=status, solution=solution, objective=objective, duals=duals)


def _reduced(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _eliminate(row: dict[int, int], f: int, p: int, prow: dict[int, int]) -> dict[int, int]:
    """p * row - f * prow divided by its gcd, where f is row's entry and p
    prow's entry in the pivot column, which the result clears. The tableau
    passes p > 0, so that the result is a positive multiple of the
    rational row it stands for. Dividing f and p by their gcd first
    leaves the same primitive row and keeps p positive."""
    g = math.gcd(f, p)
    if g != 1:
        f //= g
        p //= g
    if p != 1:
        row = {k: p * v for k, v in row.items()}
    for k, v in prow.items():
        w = row.get(k, 0) - f * v
        if w:
            row[k] = w
        else:
            del row[k]
    return _reduced(row)


def row_basis(rows: Sequence[Row]) -> list[Row]:
    """Reduced basis of the row space of sparse int rows, by fraction-free
    Gauss-Jordan elimination, as sparse primitive int rows in pivot order,
    each with a positive pivot.

    Rows are eliminated as sparse primitive integer multiples of
    themselves; a row enters the basis negated if its pivot is negative,
    and elimination by a positive pivot keeps every sign. The reduced row
    echelon form of a row space is unique, so each returned row is a
    positive multiple of the row that elimination over fractions gives:
    that row times |pivot|, the lcm of its denominators. A row meets only
    the basis rows whose pivot columns it holds, and a new pivot only the
    basis rows that hold its column, so sparse rows cost about their size.
    """
    basis: list[dict[int, int]] = []
    by_pivot: dict[int, int] = {}  # pivot column -> its row's place in basis
    holding: defaultdict[int, set[int]] = defaultdict(set)  # column -> places of the basis rows holding it
    for values in rows:
        row = _reduced(dict(values))
        # a basis row is 0 in the other pivot columns, so eliminating it brings in none
        for i, pcol in sorted([(by_pivot[k], k) for k in row if k in by_pivot]):
            row = _eliminate(row, row[pcol], basis[i][pcol], basis[i])
        if not row:
            continue
        lead = min(row)
        if row[lead] < 0:
            row = {k: -v for k, v in row.items()}
        # back-substitution changes a basis row only in the new row's columns
        for i in sorted(holding[lead]):
            prow = basis[i] = _eliminate(basis[i], basis[i][lead], row[lead], row)
            for k in row:
                if k in prow:
                    holding[k].add(i)
                else:
                    holding[k].discard(i)
        for k in row:
            holding[k].add(len(basis))
        by_pivot[lead] = len(basis)
        basis.append(row)
    return [tuple(sorted(basis[i].items())) for _, i in sorted(by_pivot.items())]


class _Tableau:
    """Sparse simplex tableau on integer rows with Bland pivoting.

    Columns are the problem's variables, then one slack per row, on which
    the row starts basic: its right-hand side is at least 0.

    Each row is a dict of its nonzero ints, keyed by column, with the
    right-hand side under RHS. A problem row enters as it is, with its
    slack coefficient 1. Its basic column holds the row's positive factor
    d, so the rational tableau row is the dict divided by d, the basic
    variable's value is rhs / d, and the ratio rhs / a of the ratio test
    is d-free: two ratios are compared by cross-multiplying. The cost row
    has the same form with its denominator under DEN, and holds minus the
    objective value under RHS. It starts as the objective, which the
    all-slack basis leaves reduced.
    """

    def __init__(self, p: LpProblem):
        n = p.num_vars
        self.rows: list[dict[int, int]] = []
        for i, (row, b) in enumerate(p.inequalities):
            line = dict(row)
            if b:
                line[RHS] = b
            line[n + i] = 1
            self.rows.append(line)
        self.basis = list(range(n, n + len(self.rows)))
        self.cost = {**dict(p.objective), DEN: 1}

    def pivot(self, i: int, j: int):
        prow = self.rows[i]
        p = prow[j]
        for r, row in enumerate(self.rows):
            f = row.get(j)
            if f and r != i:
                self.rows[r] = _eliminate(row, f, p, prow)
        f = self.cost.get(j)
        if f:
            self.cost = _eliminate(self.cost, f, p, prow)
        self.basis[i] = j

    def bland(self) -> str:
        while True:
            enter = min((k for k, c in self.cost.items() if c > 0 and k >= 0), default=-1)
            if enter < 0:
                return OPTIMAL
            leave = -1
            for i, row in enumerate(self.rows):
                a = row.get(enter, 0)
                if a > 0:
                    b = row.get(RHS, 0)
                    if leave < 0:
                        best_b, best_a, leave = b, a, i
                        continue
                    lhs, rhs = b * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        best_b, best_a, leave = b, a, i
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, enter)


def solve(p: LpProblem) -> LpOutcome:
    """Exact simplex with Bland's rule from the all-slack basis;
    deterministic for equal inputs.

    At an optimum, row i's dual is minus the reduced cost of its slack
    column, -cost[num_vars + i] / cost[DEN]: the duals are nonnegative,
    satisfy A^T y >= c, and b . y equals the optimal value.
    """
    tab = _Tableau(p)
    if tab.bland() == UNBOUNDED:
        return LpOutcome(status=UNBOUNDED)
    n, cost = p.num_vars, tab.cost
    z = [ZERO] * n
    for row, j in zip(tab.rows, tab.basis):
        if j < n:
            z[j] = Rational(row.get(RHS, 0), row[j])
    den = cost[DEN]
    duals = tuple(Rational(-cost[k], den) if k in cost else ZERO for k in range(n, n + len(tab.rows)))
    return LpOutcome(status=OPTIMAL, solution=tuple(z), objective=Rational(-cost.get(RHS, 0), den), duals=duals)
