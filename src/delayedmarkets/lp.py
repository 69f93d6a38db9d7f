"""Exact linear programming over rationals, computed on integers.

Two-phase primal simplex with Bland's rule: no tolerances exist anywhere
in this module, so optimal solutions re-substitute exactly. Bland's
smallest-index rule trades speed for a termination guarantee, which is
the right trade at the problem sizes the arbitrage oracles produce.
Artificial columns exist only during phase 1, which runs only when some
row cannot start on its slack; it ends by deleting them, which leaves a
fully dependent equality row empty.

Problems come in standard form: maximize c . x subject to equality rows
and <= rows, with x >= 0 implicit. A caller with a free variable passes
it as an adjacent (column, -column) pair and reads back the difference.

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
way out, for the solution and the objective value.
"""

from __future__ import annotations

import math
from typing import Sequence

from .frozen import Frozen
from .rationals import Rational, ZERO

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
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
    """maximize objective . x subject to equality rows, <= rows, and x >= 0.

    The objective and each constraint's coefficients are sparse int rows
    (see Row); a constraint is a (row, int right-hand side) pair.
    """

    _fields = ("num_vars", "objective", "equalities", "inequalities")

    def __init__(self, num_vars: int, objective: Row, equalities: tuple[tuple[Row, int], ...] = (),
                 inequalities: tuple[tuple[Row, int], ...] = ()):
        if num_vars < 1:
            raise ValueError("a problem needs at least one variable")
        _check_row(objective, 0, num_vars, "objective")
        for row, b in equalities:
            _check_row(row, b, num_vars, "equality")
        for row, b in inequalities:
            _check_row(row, b, num_vars, "inequality")
        self.__dict__.update(num_vars=num_vars, objective=objective, equalities=equalities,
                             inequalities=inequalities)


class LpOutcome(Frozen):
    _fields = ("status", "solution", "objective")

    def __init__(self, status: str, solution: tuple[Rational, ...] | None = None,
                 objective: Rational | None = None):
        self.__dict__.update(status=status, solution=solution, objective=objective)


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
    that row times |pivot|, the lcm of its denominators.
    """
    basis: list[dict[int, int]] = []
    pivots: list[int] = []
    for values in rows:
        row = _reduced(dict(values))
        for prow, pcol in zip(basis, pivots):
            f = row.get(pcol)
            if f:
                row = _eliminate(row, f, prow[pcol], prow)
        if not row:
            continue
        lead = min(row)
        if row[lead] < 0:
            row = {k: -v for k, v in row.items()}
        for i, prow in enumerate(basis):
            f = prow.get(lead)
            if f:
                basis[i] = _eliminate(prow, f, row[lead], row)
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=pivots.__getitem__)
    return [tuple(sorted(basis[i].items())) for i in order]


class _Tableau:
    """Sparse simplex tableau on integer rows with Bland pivoting.

    Columns are the problem's variables, then one slack per <= row, then,
    during phase 1 only, one artificial per row that cannot start on its
    slack (an equality, or a <= row with a negative right-hand side): the
    artificial columns are the columns from n_real up.

    Each row is a dict of its nonzero ints, keyed by column, with the
    right-hand side under RHS. A problem row enters as it is, negated if
    its right-hand side is negative, with its slack coefficient 1 (-1 when
    negated) and its artificial coefficient 1. Its basic column holds the
    row's positive factor d, so the rational tableau row is the dict
    divided by d, the basic variable's value is rhs / d, and the ratio
    rhs / a of the ratio test is d-free: two ratios are compared by
    cross-multiplying. The cost row has the same form with its
    denominator under DEN, and holds minus the objective value under RHS.

    Phase 1 ends by deleting every artificial column. A fully dependent
    row is then left empty, still basic on its artificial, and every loop
    passes over it, since it has no entry in any column.
    """

    def __init__(self, p: LpProblem):
        rows = [(row, b, False) for row, b in p.equalities] + [(row, b, True) for row, b in p.inequalities]
        n = p.num_vars
        self.n_real = n + len(p.inequalities)
        self.rows: list[dict[int, int]] = []
        self.basis: list[int] = []
        self.cost: dict[int, int] = {}

        slack = n
        for i, (row, b, is_ineq) in enumerate(rows):
            sign = -1 if b < 0 else 1
            line = dict(row) if sign > 0 else {k: -v for k, v in row}
            if b:
                line[RHS] = sign * b
            if is_ineq:
                line[slack] = sign
            if is_ineq and sign > 0:
                self.basis.append(slack)
            else:
                art = self.n_real + i
                line[art] = 1
                self.basis.append(art)
            if is_ineq:
                slack += 1
            self.rows.append(line)

    def pivot(self, i: int, j: int):
        prow = self.rows[i]
        if prow[j] < 0:
            # only a drive-out pivot meets a negative entry, on a row whose rhs is zero
            prow = self.rows[i] = {k: -v for k, v in prow.items()}
        p = prow[j]
        for r, row in enumerate(self.rows):
            f = row.get(j)
            if f and r != i:
                self.rows[r] = _eliminate(row, f, p, prow)
        f = self.cost.get(j)
        if f:
            self.cost = _eliminate(self.cost, f, p, prow)
        self.basis[i] = j

    def set_cost(self, costs: dict[int, int]):
        """Install an int cost vector and reduce it against the current basis."""
        cost = {**costs, DEN: 1}
        for row, j in zip(self.rows, self.basis):
            cb = cost.get(j)
            if cb:
                cost = _eliminate(cost, cb, row[j], row)
        self.cost = cost

    def value(self) -> Rational:
        return Rational(-self.cost.get(RHS, 0), self.cost[DEN])

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
    """Exact two-phase simplex with Bland's rule; deterministic for equal inputs."""
    tab = _Tableau(p)
    n_real = tab.n_real

    if any(j >= n_real for j in tab.basis):
        # phase 1: maximize minus the sum of the artificials, which start basic
        tab.set_cost({j: -1 for j in tab.basis if j >= n_real})
        if tab.bland() != OPTIMAL:
            raise AssertionError("phase-1 objective is bounded; unbounded signal is a solver bug")
        if tab.value() < 0:
            return LpOutcome(status=INFEASIBLE)
        # drive leftover artificials out of the basis, then delete every artificial column
        for i, row in enumerate(tab.rows):
            if tab.basis[i] >= n_real:
                target = min((k for k in row if 0 <= k < n_real), default=None)
                if target is not None:
                    tab.pivot(i, target)
        tab.rows = [{k: v for k, v in row.items() if k < n_real} for row in tab.rows]

    # phase 2: the caller's objective
    tab.set_cost(dict(p.objective))
    if tab.bland() == UNBOUNDED:
        return LpOutcome(status=UNBOUNDED)

    z = [ZERO] * p.num_vars
    for row, j in zip(tab.rows, tab.basis):
        if j < p.num_vars:
            z[j] = Rational(row.get(RHS, 0), row[j])
    return LpOutcome(status=OPTIMAL, solution=tuple(z), objective=tab.value())
