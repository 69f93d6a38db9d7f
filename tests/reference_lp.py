"""The dense two-phase simplex and row basis over Fraction arithmetic
that `delayedmarkets.lp` replaced, kept as the reference that
`test_lp.py` compares the integer implementations against: same status,
solution and objective, same pivots, same row basis. It still takes
equality rows and negative right-hand sides, which `delayedmarkets.lp`
no longer does, so the reference measure LP of `reference_check.py`
runs on it. A problem is any object with `num_vars`, a dense
`objective`, and dense `(row, rhs)` pairs in `equalities` and
`inequalities`.
"""

from __future__ import annotations

from typing import Sequence

from delayedmarkets.lp import OPTIMAL, UNBOUNDED, LpOutcome, Row
from delayedmarkets.rationals import Rational, ZERO

from conftest import ONE

INFEASIBLE = "infeasible"


def reference_row_basis(rows: Sequence[Sequence[Rational]]) -> list[Row]:
    """Reduced basis of the row space, by exact Gauss-Jordan elimination."""
    work = [list(r) for r in rows if any(v != 0 for v in r)]
    basis: list[list[Rational]] = []
    pivots: list[int] = []
    for row in work:
        for prow, pcol in zip(basis, pivots):
            factor = row[pcol]
            if factor:
                for k in range(len(row)):
                    if prow[k]:
                        row[k] -= factor * prow[k]
        lead = next((k for k, v in enumerate(row) if v != 0), None)
        if lead is None:
            continue
        inv = ONE / row[lead]
        row = [v * inv for v in row]
        for prow in basis:
            factor = prow[lead]
            if factor:
                for k in range(len(row)):
                    if row[k]:
                        prow[k] -= factor * row[k]
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [tuple(basis[i]) for i in order]


class _Tableau:
    """Dense simplex tableau over exact rationals with Bland pivoting.

    Columns are the problem's variables, then one slack per <= row, then
    one artificial per row; a row whose slack can start basic (its
    right-hand side is nonnegative) leaves its artificial column at zero.
    """

    def __init__(self, p):
        rows = [(row, b, False) for row, b in p.equalities] + [(row, b, True) for row, b in p.inequalities]
        m = len(rows)
        n = p.num_vars
        self.n_real = n + len(p.inequalities)
        self.n_cols = self.n_real + m
        self.rows: list[list[Rational]] = []
        self.rhs: list[Rational] = []
        self.basis: list[int] = []
        self.live: list[int] = list(range(m))
        self.artificials: set[int] = set()
        self.cost: list[Rational] = []
        self.value = ZERO

        slack = n
        for i, (row, b, is_ineq) in enumerate(rows):
            line = list(row) + [ZERO] * (self.n_cols - n)
            if is_ineq:
                line[slack] = ONE
            if b < 0:
                line = [-v for v in line]
                b = -b
            if is_ineq and line[slack] == ONE:
                self.basis.append(slack)
            else:
                art = self.n_real + i
                line[art] = ONE
                self.artificials.add(art)
                self.basis.append(art)
            if is_ineq:
                slack += 1
            self.rows.append(line)
            self.rhs.append(b)

    def pivot(self, i: int, j: int):
        prow = self.rows[i]
        piv = prow[j]
        if piv != ONE:
            inv = ONE / piv
            for k in range(self.n_cols):
                if prow[k]:
                    prow[k] *= inv
            self.rhs[i] *= inv
        nz = [k for k in range(self.n_cols) if prow[k]]
        for r in self.live:
            if r == i:
                continue
            factor = self.rows[r][j]
            if factor:
                target = self.rows[r]
                for k in nz:
                    target[k] -= factor * prow[k]
                self.rhs[r] -= factor * self.rhs[i]
        factor = self.cost[j]
        if factor:
            for k in nz:
                self.cost[k] -= factor * prow[k]
            self.value += factor * self.rhs[i]
        self.basis[i] = j

    def set_cost(self, column_costs: list[Rational]):
        """Install a cost vector and reduce it against the current basis."""
        reduced = list(column_costs)
        value = ZERO
        for i in self.live:
            cb = column_costs[self.basis[i]]
            if cb:
                value += cb * self.rhs[i]
                prow = self.rows[i]
                for k in range(self.n_cols):
                    if prow[k]:
                        reduced[k] -= cb * prow[k]
        self.cost = reduced
        self.value = value

    def bland(self, allow_artificial: bool) -> str:
        while True:
            enter = -1
            for j in range(self.n_cols):
                if self.cost[j] > 0 and (allow_artificial or j not in self.artificials):
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best = None
            for i in self.live:
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, enter)


def reference_solve(p) -> LpOutcome:
    """Exact two-phase simplex with Bland's rule; deterministic for equal inputs."""
    tab = _Tableau(p)

    # phase 1: maximize minus the sum of artificials, from the all-slack/artificial basis
    phase1_cost = [ZERO] * tab.n_cols
    for c in tab.artificials:
        phase1_cost[c] = -ONE
    tab.set_cost(phase1_cost)
    status = tab.bland(allow_artificial=True)
    if status != OPTIMAL:
        raise AssertionError("phase-1 objective is bounded; unbounded signal is a solver bug")
    if tab.value < 0:
        return LpOutcome(status=INFEASIBLE)

    # drive leftover artificials out of the basis; fully dependent rows are dropped
    for i in list(tab.live):
        if tab.basis[i] in tab.artificials:
            target = next((j for j in range(tab.n_real) if tab.rows[i][j] != 0), None)
            if target is None:
                tab.live.remove(i)
            else:
                tab.pivot(i, target)

    # phase 2: the caller's objective, artificials barred from re-entering
    tab.set_cost(list(p.objective) + [ZERO] * (tab.n_cols - p.num_vars))
    status = tab.bland(allow_artificial=False)
    if status == UNBOUNDED:
        return LpOutcome(status=UNBOUNDED)

    z = [ZERO] * tab.n_cols
    for i in tab.live:
        z[tab.basis[i]] = tab.rhs[i]
    return LpOutcome(status=OPTIMAL, solution=tuple(z[:p.num_vars]), objective=tab.value)
